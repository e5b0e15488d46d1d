package xoar

import (
	"runtime"
	"testing"
	"time"

	"xoar/internal/cluster"
	"xoar/internal/sim"
	"xoar/internal/workload"
)

// The fleet's hosts live forever, so any per-guest state that outlives its
// guest, or any scan over every guest a host has ever run, makes each new
// guest cost more than the last. The tests below gate both symptoms: heap
// retained per churned guest (a test, so tier-1; runtime noise is far below
// the bound) and the growth of wall time per guest with run length (a
// benchmark, so wall-clock noise stays out of plain `go test`).

// newFleet boots the 8-host artifact fleet.
func newFleet(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Hosts: 8, Seed: 42, Policy: cluster.Spread{}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// churn drives that many micro guests through c at 1000/s, waits for every one
// of them to be destroyed, and returns the wall time it took.
func churn(t testing.TB, c *cluster.Cluster, guests int) time.Duration {
	t.Helper()
	var st workload.ChurnStats
	done := false
	start := time.Now()
	c.Env.Spawn("churn", func(p *sim.Proc) {
		st = workload.ServerlessChurn(p, c, workload.ChurnConfig{
			ArrivalsPerSec: 1000,
			Total:          guests,
			MeanLifetime:   150 * sim.Millisecond,
			MemMB:          64,
		})
		done = true
	})
	for i := 0; i < 900 && !done; i++ {
		c.Env.RunFor(sim.Second)
	}
	wall := time.Since(start)
	if !done {
		t.Fatalf("churn of %d guests did not complete", guests)
	}
	if st.Launched != guests || st.Failed != 0 {
		t.Fatalf("launched %d, failed %d of %d", st.Launched, st.Failed, guests)
	}
	for _, h := range c.Hosts {
		if n := h.GuestCount(); n != 0 {
			t.Fatalf("%s still runs %d guests after the drain", h.Name, n)
		}
	}
	return wall
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChurnRetainsNoPerGuestState churns 5000 guests through the fleet and
// requires that, once they are all gone, the hosts hold almost nothing more
// than before. Per-guest records that are never deleted show up here as
// hundreds of bytes per guest. The baseline heap is read after a short
// warm-up churn rather than straight after boot: the warm-up grows the
// runtime's goroutine pool and every map to the fleet's peak residency,
// which is a fixed cost, not one per guest.
func TestChurnRetainsNoPerGuestState(t *testing.T) {
	const guests = 5000
	const maxPerGuest = 64 // bytes
	c := newFleet(t)
	defer c.Env.Shutdown()
	churn(t, c, 1000)
	before := liveHeap()
	churn(t, c, guests)
	after := liveHeap()
	runtime.KeepAlive(c)
	var grown float64
	if after > before {
		grown = float64(after-before) / guests
	}
	t.Logf("retained %.1f B/guest over %d guests", grown, guests)
	if grown > maxPerGuest {
		t.Fatalf("fleet retains %.1f B per destroyed guest, want <= %d: some per-guest state outlives its guest", grown, maxPerGuest)
	}
}

// BenchmarkFlatPerGuestWallCost compares wall time per guest at 40k guests
// with that at 5k, best of three runs each, and fails when the ratio exceeds
// 1.4. A control-plane path whose cost grows with the number of guests a
// host has ever run pushes the ratio up; a flat one keeps it near 1. The
// ratio is machine-independent, but wall time is noisy on shared hosts, so
// it is a benchmark rather than a tier-1 test. Run it with -benchtime=1x
// (make flat-cost).
func BenchmarkFlatPerGuestWallCost(b *testing.B) {
	const small, large = 5000, 40000
	const maxRatio = 1.4
	perGuest := func(guests int) float64 {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			c := newFleet(b)
			best = min(best, churn(b, c, guests))
			c.Env.Shutdown()
		}
		return float64(best.Nanoseconds()) / float64(guests)
	}
	for i := 0; i < b.N; i++ {
		nsSmall, nsLarge := perGuest(small), perGuest(large)
		ratio := nsLarge / nsSmall
		b.ReportMetric(nsSmall, "ns/guest@5k")
		b.ReportMetric(nsLarge, "ns/guest@40k")
		b.ReportMetric(ratio, "ratio")
		if ratio > maxRatio {
			b.Fatalf("per-guest wall cost grows with run length: %.2f× from %d to %d guests, want <= %.1f×", ratio, small, large, maxRatio)
		}
	}
}
