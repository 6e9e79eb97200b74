package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Every workload end to end at 2,000 papers: all thirteen metrics
// measured and non-zero, every check passing, nothing left behind.
// Short enough to run under -short with the rest of tier-1.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, sh := range shapes {
		res, err := runWorkload(testBin, sh, 1, 0.6, smokeScale)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", sh.name, res.failed, res.attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.e2e[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v (measured: %v)", sh.name, m.name, v, ok)
			}
		}
		if n := liveChildren(); n != 0 {
			t.Errorf("%s left %d servers running", sh.name, n)
		}
		if sh.name != "ingest-durable" {
			continue
		}
		// The traced run reports every per-layer metric and the span file.
		layers, err := tracedRun(sh, 1, smokeScale, res)
		if err != nil {
			t.Fatalf("%s traced: %v", sh.name, err)
		}
		for _, m := range perLayer {
			if _, ok := layers[m.name]; !ok {
				t.Errorf("%s traced: %s was not measured", sh.name, m.name)
			}
		}
		if layers["trace.span_count"] < 100 {
			t.Errorf("traced run recorded %v spans", layers["trace.span_count"])
		}
		if fi, err := os.Stat(filepath.Join(outDir, "trace-"+sh.name+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("span file: %v", err)
		}
	}
	children.Lock()
	left := len(children.scratch)
	children.Unlock()
	if left != 0 {
		t.Errorf("%d scratch directories left behind", left)
	}
}
