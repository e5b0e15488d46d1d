package builder_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"xoar/internal/builder"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// newRig assembles a minimal platform around a Builder domain carrying the
// boot.go privilege set. The boot package cannot be imported here (it
// imports builder), so the rig mirrors its construction path by hand.
func newRig(t *testing.T) (*sim.Env, *hv.Hypervisor, *builder.Builder) {
	t.Helper()
	env := sim.NewEnv(42)
	h := hv.New(env, hw.NewMachine(env))
	h.EnforceShardIVC = true
	logic := xenstore.NewLogic(env, xenstore.NewState())

	bd, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{
		Name: "builder", MemMB: 64, Shard: true, OSImage: osimage.ImgBuilder,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = h.AssignPrivileges(hv.SystemCaller, bd.ID, hv.Assignment{
		Hypercalls: []xtypes.Hypercall{
			xtypes.HyperDomctlCreate, xtypes.HyperDomctlDestroy,
			xtypes.HyperDomctlPause, xtypes.HyperDomctlUnpause,
			xtypes.HyperDomctlMaxMem, xtypes.HyperDomctlPriv,
			xtypes.HyperMapForeign, xtypes.HyperSetParentTool,
			xtypes.HyperVMRollback, xtypes.HyperSetRestartPolicy,
			xtypes.HyperDelegateAdmin,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unpause(hv.SystemCaller, bd.ID); err != nil {
		t.Fatal(err)
	}
	b := builder.New(h, bd.ID, osimage.DefaultCatalog(), logic.Connect(bd.ID, true))
	env.Spawn("builder-serve", b.Serve)
	return env, h, b
}

// newShard creates an unpaused shard domain outside the Builder, standing
// in for a toolstack or the Bootstrapper.
func newShard(t *testing.T, h *hv.Hypervisor, name string, hcs ...xtypes.Hypercall) xtypes.DomID {
	t.Helper()
	d, err := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{
		Name: name, MemMB: 128, Shard: true, OSImage: osimage.ImgToolstack,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hcs) > 0 {
		if err := h.AssignPrivileges(hv.SystemCaller, d.ID, hv.Assignment{Hypercalls: hcs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Unpause(hv.SystemCaller, d.ID); err != nil {
		t.Fatal(err)
	}
	return d.ID
}

// run executes fn in a sim process and fails the test if it does not
// complete within d of virtual time.
func run(t *testing.T, env *sim.Env, d sim.Duration, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Spawn("test-step", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	env.RunFor(d)
	if !done {
		t.Fatal("sim step did not complete")
	}
}

func TestQemuForForeignGuestRefused(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts0 := newShard(t, h, "ts0")
	ts1 := newShard(t, h, "ts1")

	var g xtypes.DomID
	run(t, env, 60*sim.Second, func(p *sim.Proc) {
		var err error
		g, err = b.Submit(p, builder.Request{Requester: ts0, Name: "g", Image: osimage.ImgGuestPV})
		if err != nil {
			t.Errorf("guest build: %v", err)
		}
	})

	// ts1 asks for DMA rights over ts0's guest: refused, nothing built.
	before := b.Builds
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		_, err := b.Submit(p, builder.Request{Requester: ts1, Name: "evil-qemu", QemuFor: g})
		if !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("foreign qemu build: %v", err)
		}
	})
	if b.Builds != before || b.Denied == 0 {
		t.Fatalf("denied build altered state: builds %d denied %d", b.Builds, b.Denied)
	}

	// The parenting toolstack gets its device model, wired to exactly its
	// guest.
	var q xtypes.DomID
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		var err error
		q, err = b.Submit(p, builder.Request{Requester: ts0, Name: "g-qemu", QemuFor: g})
		if err != nil {
			t.Errorf("qemu build: %v", err)
		}
	})
	qd, err := h.Domain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qd.IsShard() || qd.ParentTool() != ts0 {
		t.Fatalf("qemu shard=%v parent=%v", qd.IsShard(), qd.ParentTool())
	}
	if err := h.MapForeign(q, g, 0); err != nil {
		t.Fatalf("qemu mapping its guest: %v", err)
	}
	if err := h.MapForeign(q, ts1, 0); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("qemu mapping a foreign domain: %v", err)
	}
}

func TestUnknownImageRejected(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")
	run(t, env, 10*sim.Second, func(p *sim.Proc) {
		_, err := b.Submit(p, builder.Request{Requester: ts, Name: "bad", Image: "evil-kernel"})
		if !errors.Is(err, xtypes.ErrNotFound) {
			t.Errorf("unknown image: %v", err)
		}
	})
}

func TestPrivilegedBuildRequiresAuthorization(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		_, err := b.Submit(p, builder.Request{
			Requester: ts, Name: "rogue-shard", Image: osimage.ImgNetBack, Shard: true,
		})
		if !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("unauthorized shard build: %v", err)
		}
	})
	b.Authorize(ts)
	run(t, env, 30*sim.Second, func(p *sim.Proc) {
		dom, err := b.Submit(p, builder.Request{
			Requester: ts, Name: "shard", Image: osimage.ImgNetBack, Shard: true,
		})
		if err != nil {
			t.Errorf("authorized shard build: %v", err)
			return
		}
		if d, derr := h.Domain(dom); derr != nil || !d.IsShard() {
			t.Errorf("built domain not a shard: %v %v", d, derr)
		}
	})
}

func TestSubmitSerializedFIFO(t *testing.T) {
	env, h, b := newRig(t)
	defer env.Shutdown()
	ts := newShard(t, h, "ts")

	const n = 4
	doms := make([]xtypes.DomID, n)
	times := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			dom, err := b.Submit(p, builder.Request{
				Requester: ts, Name: fmt.Sprintf("g-%d", i), Image: osimage.ImgQemu,
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			doms[i] = dom
			times[i] = p.Now()
		})
	}
	env.RunFor(60 * sim.Second)
	for i := 1; i < n; i++ {
		// DomIDs are allocated in build order: FIFO means ascending.
		if doms[i] <= doms[i-1] {
			t.Fatalf("builds out of submission order: %v", doms)
		}
		// Serve is serialized: completions are strictly spaced, never
		// batched at one instant.
		if times[i] <= times[i-1] {
			t.Fatalf("concurrent builds overlapped: %v", times)
		}
	}
	if b.Builds != n {
		t.Fatalf("builds = %d, want %d", b.Builds, n)
	}
}

// runSubmitScenario executes a fixed, seeded build workload against a fresh
// rig with reg attached and returns the builder. Two calls with equal
// arguments produce identical telemetry (the simulation is deterministic).
func runSubmitScenario(t *testing.T, reg *telemetry.Registry) *builder.Builder {
	t.Helper()
	env, h, b := newRig(t)
	defer env.Shutdown()
	b.SetMetrics(reg)
	ts := newShard(t, h, "ts")
	const n = 6
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			if _, err := b.Submit(p, builder.Request{
				Requester: ts, Name: fmt.Sprintf("g-%d", i), Image: osimage.ImgQemu,
			}); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		})
	}
	env.RunFor(120 * sim.Second)
	return b
}

// TestTelemetryExactUnderConcurrentHammer checks that histogram counts and
// sums stay exact when real goroutines hammer the same histogram the
// builder's serve loop observes into. Run with -race (the CI race shard
// does) to also validate the synchronization.
func TestTelemetryExactUnderConcurrentHammer(t *testing.T) {
	// Baseline: the same scenario without the hammer gives the expected
	// simulation-side observations.
	base := telemetry.New()
	bb := runSubmitScenario(t, base)
	baseHist := base.Histogram("builder_queue_wait_ms", telemetry.LatencyMSBuckets)
	baseCount, baseSum := baseHist.Count(), baseHist.Sum()
	if baseCount == 0 || bb.Builds == 0 {
		t.Fatalf("baseline scenario recorded nothing: count=%d builds=%d", baseCount, bb.Builds)
	}

	reg := telemetry.New()
	shared := reg.Histogram("builder_queue_wait_ms", telemetry.LatencyMSBuckets)
	side := reg.Histogram("hammer_only", telemetry.LatencyMSBuckets)
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Observe 0 into the shared histogram: x + 0.0 == x in IEEE
				// arithmetic, so the serve loop's sum must come out exactly
				// equal to the baseline regardless of interleaving.
				shared.Observe(0)
				side.Observe(2)
			}
		}()
	}
	b := runSubmitScenario(t, reg)
	wg.Wait()

	if b.Builds != bb.Builds {
		t.Fatalf("scenario diverged: builds %d vs %d", b.Builds, bb.Builds)
	}
	if got := shared.Count(); got != baseCount+workers*per {
		t.Fatalf("shared count = %d, want %d (lost updates)", got, baseCount+workers*per)
	}
	if got := shared.Sum(); got != baseSum {
		t.Fatalf("shared sum = %g, want %g", got, baseSum)
	}
	if side.Count() != workers*per || side.Sum() != float64(workers*per*2) {
		t.Fatalf("side histogram inexact: n=%d sum=%g", side.Count(), side.Sum())
	}
}
