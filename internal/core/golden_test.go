package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// goldenSeed1 pins, in registry order, the sha256 of every experiment's
// CSV followed by its notes (one per line) on the full seed-1 dataset.
// The CSV prints floats at full precision, so any reordering of a float
// sum or a changed tie-break in a kernel shows up here.
var goldenSeed1 = []struct{ id, digest string }{
	{"fig1", "8b9cf49c08cdc45ffdbb6fe2ec881a4cec4916ec1dd347511f1bf1993d2bcaeb"},
	{"fig3a", "ad2f7f44dcbda08ec7fb905faf33b21e80a0e93546f453003843e9c0f4d376e3"},
	{"fig3b", "3373c9cf3f49181f04377a783e07b921e3531c138d89d71a56010c4b4bd075dd"},
	{"fig4", "1d829a51ee276161e0f5e8ba64b69ebf5eafe53b008d5cbfc729687b14ffde25"},
	{"fig5a", "0cf8075eacec5e8f36bfe899ddb2aa5b1296aed18c3ba897b02fb97134a4100e"},
	{"fig5b", "317b5af84bd2f30a2d0729a08b63dfbec77e21f1b990c25c84481540dcc4a1ba"},
	{"fig5c", "5d5fdd8cecce9e480a297f29ac094272198a3bc47765aeb28a68add218c33d66"},
	{"fig6a", "c68fe5718f6458a2dc6ec2f9f1d237815afc9f19df7d742945f34e74cd52797b"},
	{"fig6b", "5d1f0860c5d6f0d7d8526b6300e480b1f7c1bb26c236805da4452015a9801c5a"},
	{"fig7", "c3a4622df2876765945802ad466edbc929c8fd2658339f373761cebc305b69de"},
	{"fig8", "d913264684aa998b5d750787879b7e05993e018767e963f409306e3a7d4bd223"},
	{"fig9", "30dadc4b9c18d93810feef8109442fa9b6c0df470a95a801a395d1b952867793"},
	{"fig10", "f1be8758b2f9b3677ce0e6b2492f14a3e700e09c68d62875756c976d62a703ca"},
	{"fig10d", "4a6c9b978fcc401d002066b3929ae72e069d16e93d1309b8d0ff568061bbd0c8"},
	{"fig11a", "459f89f9b4bd99dc3be2882aa2bd421727023c2b7e692c68aa598d04c124fe9b"},
	{"fig11b", "151574a18059dc4d3d8cf47de4dfada588b4b30d39b412a3636be646e3519449"},
	{"fig11c", "be0df7bbaf19425222248a9a54f788fbfc953042a31b7f0c62cfa9fa268e14ed"},
	{"fig11d", "192f740d64e9146619016193759531ad246ac8269187831552c224add7aff0af"},
	{"fig12", "0e7d7481016e945bfc57d2a412339d46f63228924819e23ac0571e826fffc303"},
	{"ext-forecast", "7552928134841532ddec1e8b64481858c478ce21392a8fcf641810a16c97656d"},
	{"ext-contention", "1a430dbf01e8be4661f55d39a3c92c2edb017db14d341d04edc87049a4247585"},
	{"ext-overhead", "5bd40697793c00be07ac64deb8ea92a18380e627bdb0379a7ce484b74062e2d5"},
}

// goldenSeed1All is the digest over "<id> <digest>\n" lines of the
// table above, the same value perfbench's offline-repro workload
// records for seed 1.
const goldenSeed1All = "6421828a20853eb497de58fbbf75dc569762036de486c30b43c8ebbbc62ccf83"

// tableDigest hashes a table's CSV and notes.
func tableDigest(t *testing.T, tbl *Table) string {
	t.Helper()
	h := sha256.New()
	if err := tbl.WriteCSV(h); err != nil {
		t.Fatalf("%s: WriteCSV: %v", tbl.ID, err)
	}
	for _, n := range tbl.Notes {
		io.WriteString(h, n+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSeed1 runs every experiment on the full dataset and
// compares each table with its frozen digest.
func TestGoldenSeed1(t *testing.T) {
	l := full(t)
	exps := Experiments()
	if len(exps) != len(goldenSeed1) {
		t.Fatalf("%d experiments, %d golden digests", len(exps), len(goldenSeed1))
	}
	all := sha256.New()
	for i, e := range exps {
		tbl, err := e.Run(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		d := tableDigest(t, tbl)
		fmt.Fprintf(all, "%s %s\n", e.ID, d)
		if want := goldenSeed1[i]; e.ID != want.id || d != want.digest {
			t.Errorf("%s: digest %s, golden %s %s", e.ID, d, want.id, want.digest)
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != goldenSeed1All {
		t.Errorf("all tables: digest %s, golden %s", got, goldenSeed1All)
	}
}
