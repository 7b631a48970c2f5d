package main

// The in-process oracle: every expected answer is computed from the
// generated platform before the daemon starts, through the same facade
// the daemon serves, and every response is checked against it before it
// counts.

import (
	"encoding/json"
	"fmt"
	"slices"

	"bwc"
	apiv1 "bwc/api/v1"
)

// expect is what one request's response must carry.
type expect struct {
	// submit
	throughput string
	nodes      int
	markers    []string // allowed cache markers
	// simulate: exact counts of the oracle's own run
	completed, generated int
	passed, failed       int
}

func simulateOracle(p *platform) (*expect, error) {
	run, err := bwc.NewSession().Simulate(p.tree, bwc.WithTasks(simTasks), bwc.WithObserver(bwc.NewObserver()))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rep := bwc.AnalyzeRun(run)
	return &expect{
		throughput: run.Stats.Throughput.String(),
		completed:  run.Stats.Completed,
		generated:  run.Stats.Generated,
		passed:     rep.Passed,
		failed:     rep.Failed,
	}, nil
}

// check validates one response against its request's oracle.
func check(r *request, status int, body []byte) error {
	if status/100 != 2 {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	w := r.want
	switch r.op {
	case opSubmit:
		var resp apiv1.SubmitResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Throughput != w.throughput {
			return fmt.Errorf("throughput %s, oracle %s", resp.Throughput, w.throughput)
		}
		if resp.Nodes != w.nodes {
			return fmt.Errorf("nodes %d, oracle %d", resp.Nodes, w.nodes)
		}
		if !slices.Contains(w.markers, resp.Cache) {
			return fmt.Errorf("cache marker %q, want one of %v", resp.Cache, w.markers)
		}
		if len(resp.Deployment) == 0 || string(resp.Deployment) == "null" {
			return fmt.Errorf("no deployment document")
		}
	case opSimulate:
		var resp apiv1.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Completed <= 0 || resp.Report == nil {
			return fmt.Errorf("completed %d, report present %v", resp.Completed, resp.Report != nil)
		}
		if resp.Throughput != w.throughput || resp.Completed != w.completed || resp.Generated != w.generated {
			return fmt.Errorf("throughput %s completed %d generated %d, oracle %s %d %d",
				resp.Throughput, resp.Completed, resp.Generated, w.throughput, w.completed, w.generated)
		}
		if resp.Report.Passed != w.passed || resp.Report.Failed != w.failed {
			return fmt.Errorf("report %d pass / %d fail, oracle %d / %d",
				resp.Report.Passed, resp.Report.Failed, w.passed, w.failed)
		}
	}
	return nil
}
