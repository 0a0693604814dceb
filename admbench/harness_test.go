package main

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// small runs every workload at a tiny population for a fraction of a
// second: enough to boot, load, check and tear down each stack.
func small(workload string, trace bool, workdir string) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, target: 24, workdir: workdir}
}

// settle waits for the goroutine count to return to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left over (baseline %d):\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// noTempDirs fails if a stack's work directory survived the run.
func noTempDirs(t *testing.T, workdir string) {
	t.Helper()
	entries, err := os.ReadDir(workdir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "admbench-") {
			t.Fatalf("work directory %s left behind", e.Name())
		}
	}
}

func TestRunsLeaveNothingBehind(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			workdir := t.TempDir()
			base := runtime.NumGoroutine()
			res, err := run(context.Background(), small(name, trace, workdir))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: result %+v", name, trace, res)
			}
			if res.Attempted%roundLen != 0 {
				t.Fatalf("%s: %d attempted ops are not whole rounds", name, res.Attempted)
			}
			wantFailed := 0
			if name == "sharded-cross" {
				wantFailed = res.Attempted / roundLen // the point reads
			}
			if res.Failed != wantFailed {
				t.Fatalf("%s: %d failed ops, want %d", name, res.Failed, wantFailed)
			}
			settle(t, base)
			noTempDirs(t, workdir)
		}
	}
}

func TestCancelledRunLeavesNothingBehind(t *testing.T) {
	for _, name := range []string{"paper-load", "replicated-pair", "sharded-cross"} {
		workdir := t.TempDir()
		base := runtime.NumGoroutine()
		cfg := small(name, false, workdir)
		cfg.seconds = 30
		ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		_, err := run(ctx, cfg)
		cancel()
		if err == nil {
			t.Fatalf("%s: cancelled run reported success", name)
		}
		settle(t, base)
		noTempDirs(t, workdir)
	}
}
