package main

import (
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/workload"
)

// The online workloads share one job model: lengths drawn from the
// Azure trace distribution by sched.GenerateJobs and capped at
// maxJobHours, with cmd/loadgen's default slack and flexibility mix.
const (
	maxJobHours       = 24
	jobSlackHours     = 48
	jobInterruptible  = 0.8
	jobMigratableFrac = 0.6
)

// benchJobs draws n jobs of the model, arriving uniformly over
// [0, arrivalSpan) from origins chosen at random.
func benchJobs(seed uint64, n, arrivalSpan int, origins []string) ([]sched.Job, error) {
	return sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              n,
		ArrivalSpan:       arrivalSpan,
		SlackHours:        jobSlackHours,
		Dist:              workload.DistAzure,
		InterruptibleFrac: jobInterruptible,
		MigratableFrac:    jobMigratableFrac,
		Origins:           origins,
		Seed:              seed,
	})
}

// request is j as a submit request without an id, its length capped.
func request(j *sched.Job) schedd.JobRequest {
	return schedd.JobRequest{
		Origin:        j.Origin,
		LengthHours:   min(j.Length, maxJobHours),
		SlackHours:    j.Slack,
		Interruptible: j.Interruptible,
		Migratable:    j.Migratable,
	}
}
