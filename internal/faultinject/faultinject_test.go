package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestDisarmedFastPath(t *testing.T) {
	if Enabled() {
		t.Fatal("fresh process reports armed faults")
	}
	if err := Fire(SnapshotWrite); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { Fire(PublishDelay) }); allocs != 0 {
		t.Fatalf("disarmed Fire allocates %.1f times per call", allocs)
	}
}

func TestArmFireDisarm(t *testing.T) {
	boom := errors.New("injected disk error")
	hits := 0
	disarm := Arm(SnapshotWrite, func() error { hits++; return boom })
	if !Enabled() {
		t.Fatal("armed point not reported enabled")
	}
	if err := Fire(SnapshotWrite); !errors.Is(err, boom) {
		t.Fatalf("Fire = %v, want injected error", err)
	}
	// Other points stay disarmed.
	if err := Fire(PublishDelay); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
	disarm()
	disarm() // idempotent
	if Enabled() {
		t.Fatal("still enabled after disarm")
	}
	if err := Fire(SnapshotWrite); err != nil {
		t.Fatalf("fired after disarm: %v", err)
	}
	if hits != 1 {
		t.Fatalf("hook ran %d times, want 1", hits)
	}
}

// TestConcurrentFire is the -race exercise: Fire from many goroutines
// while arming and disarming.
func TestConcurrentFire(t *testing.T) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Fire(PublishDelay)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		disarm := Arm(PublishDelay, func() error { return nil })
		disarm()
	}
	close(stop)
	wg.Wait()
}
