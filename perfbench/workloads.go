package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"time"

	"xoar/internal/boot"
	"xoar/internal/cluster"
	"xoar/internal/experiments"
	"xoar/internal/guest"
	"xoar/internal/netdrv"
	"xoar/internal/sim"
	"xoar/internal/snapshot"
	"xoar/internal/telemetry"
	"xoar/internal/workload"
	"xoar/internal/xtypes"
)

// sizes fixes the work of one round. A round is a pure function of seed and
// size on the simulated clock, so every round of a run does identical work
// and the host-clock figures are repeated measurements of the same thing.
type sizes struct {
	guests   int // fleet-churn: guests submitted
	requests int // web-restart: HTTP requests
	bulkMiB  int // bulk-disk: nominal file size, which the seed moves a little
}

// fullSize is what the benchmark runs; tests use smaller sizes.
var fullSize = sizes{guests: 20000, requests: 100000, bulkMiB: 16384}

// round is what one set-up-and-run of a workload reports.
type round struct {
	ops       float64 // operations completed in the timed region
	attempted int
	failed    int
	// sim holds every value read off the simulated clock or from the
	// model's deterministic counters. It must be identical for every round
	// of one seed, traced or not.
	sim map[string]float64
	// layer holds host-clock and telemetry readings, traced rounds only.
	layer map[string]float64
	// problems lists failed correctness checks.
	problems []string
	m        *meter
}

func (r *round) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(seed int64, sz sizes, m *meter) (*round, error)

var workloads = map[string]workloadFunc{
	"fleet-churn": fleetChurn,
	"web-restart": webRestart,
	"bulk-disk":   bulkDisk,
}

// --- fleet-churn ------------------------------------------------------------------

const (
	fleetHosts   = 8
	fleetRate    = 1000 // guests per simulated second, fleet-wide, Poisson
	fleetMemMB   = 64
	fleetSimTime = 900 * sim.Second
)

// launcher is the benchmark's workload.Launcher: it forwards to the
// cluster and wraps the destroy closure Launch returns, so each destroy's
// host time can be taken on its own. A destroy that advanced the simulated
// clock would have run other processes inside that interval; such calls
// are counted apart.
type launcher struct {
	c      *cluster.Cluster
	tr     *tracer
	parent spanID

	destroyUS      []float64 // traced rounds only, in call order
	destroyBlocked int
}

func (l *launcher) Launch(p *sim.Proc, name string, memMB int) (func(*sim.Proc) error, error) {
	sp := l.tr.start("cluster.Launch", l.parent, p.Now())
	destroy, err := l.c.Launch(p, name, memMB)
	sp.end(p.Now())
	if err != nil {
		return nil, err
	}
	if l.tr == nil {
		return destroy, nil
	}
	return func(p *sim.Proc) error {
		simStart := p.Now()
		sp := l.tr.start("cluster.destroy", l.parent, simStart)
		t0 := time.Now()
		err := destroy(p)
		host := time.Since(t0)
		sp.end(p.Now())
		if p.Now() != simStart {
			l.destroyBlocked++
		}
		l.destroyUS = append(l.destroyUS, float64(host)/float64(time.Microsecond))
		return err
	}, nil
}

func fleetChurn(seed int64, sz sizes, m *meter) (*round, error) {
	r := &round{m: m, sim: map[string]float64{}, layer: map[string]float64{}}
	root := m.tr.start("fleet-churn", 0, 0)
	m.beginSetup()
	var fleet *telemetry.Fleet
	if m.tr != nil {
		fleet = telemetry.NewFleet()
	}
	sp := m.tr.start("cluster.New", root.id, 0)
	c, err := cluster.New(cluster.Config{Hosts: fleetHosts, Seed: seed, Policy: cluster.Spread{}, Fleet: fleet})
	if err != nil {
		return nil, err
	}
	defer c.Env.Shutdown()
	sp.end(c.Env.Now())
	bootDoms := make([]int, len(c.Hosts))
	bootFree, bootDenied := 0, 0
	for i, h := range c.Hosts {
		bootDoms[i] = len(h.HV.Domains())
		bootFree += h.HV.MM.FreeMB()
		bootDenied += h.HV.DeniedCalls
	}
	xsBefore := counterSum(fleet, "xenstore_requests_total")
	m.endSetup(c.Env)

	l := &launcher{c: c, tr: m.tr, parent: root.id}
	var st workload.ChurnStats
	done := false
	c.Env.Spawn("churn", func(p *sim.Proc) {
		sp := m.tr.start("workload.ServerlessChurn", root.id, p.Now())
		st = workload.ServerlessChurn(p, l, workload.ChurnConfig{
			ArrivalsPerSec: fleetRate,
			Total:          sz.guests,
			MeanLifetime:   150 * sim.Millisecond,
			MemMB:          fleetMemMB,
		})
		sp.end(p.Now())
		done = true
	})
	err = m.drive(c.Env, func() bool { return done }, fleetSimTime, root.id)
	m.endTimed(c.Env)
	if err != nil {
		return nil, fmt.Errorf("fleet-churn: %w", err)
	}

	r.ops = float64(st.Launched)
	r.attempted, r.failed = st.Submitted, st.Failed
	r.check(st.Submitted == sz.guests, "fleet-churn: submitted %d guests, want %d", st.Submitted, sz.guests)
	r.check(st.Launched+st.Failed == st.Submitted, "fleet-churn: launched %d + failed %d != submitted %d",
		st.Launched, st.Failed, st.Submitted)
	liveEnd, freeEnd, denied := 0, 0, 0
	minPlaced, maxPlaced := c.Hosts[0].Placed, c.Hosts[0].Placed
	for i, h := range c.Hosts {
		n := len(h.HV.Domains())
		r.check(n == bootDoms[i], "fleet-churn: %s has %d live domains after the drain, %d after boot", h.Name, n, bootDoms[i])
		liveEnd += n
		freeEnd += h.HV.MM.FreeMB()
		denied += h.HV.DeniedCalls
		minPlaced, maxPlaced = min(minPlaced, h.Placed), max(maxPlaced, h.Placed)
	}

	makespan := st.Makespan.Seconds()
	r.sim["sim_ops_per_s"] = float64(st.Launched) / makespan
	r.sim["sim_latency_ms"] = st.ColdStartP50.Milliseconds()
	r.sim["workload.coldstart_p50_ms"] = st.ColdStartP50.Milliseconds()
	r.sim["workload.coldstart_p99_ms"] = st.ColdStartP99.Milliseconds()
	r.sim["workload.coldstart_samples"] = float64(st.Launched)
	r.sim["workload.error_rate"] = float64(st.Failed) / float64(st.Submitted)
	r.sim["cluster.placements"] = float64(c.Placements)
	r.sim["cluster.placement_failures"] = float64(c.PlacementFailures)
	r.sim["cluster.spread"] = float64(maxPlaced - minPlaced)
	r.sim["hv.domains_live_end"] = float64(liveEnd)
	r.sim["hv.denied_calls"] = float64(denied - bootDenied)
	r.sim["mm.free_MB_delta"] = float64(freeEnd - bootFree)

	if m.tr != nil {
		r.layer["cluster.destroy_host_us_p50"] = percentile(l.destroyUS, 50)
		r.layer["cluster.destroy_host_us_p99"] = percentile(l.destroyUS, 99)
		r.layer["cluster.destroy_growth"] = growth(l.destroyUS)
		r.layer["cluster.destroy_blocked"] = float64(l.destroyBlocked)
		var regs []*telemetry.Registry
		for _, name := range fleet.HostNames() {
			regs = append(regs, fleet.Host(name))
		}
		builderLayer(r.layer, regs)
		r.layer["xenstore.requests_per_op"] = float64(counterSum(fleet, "xenstore_requests_total")-xsBefore) / r.ops
	}
	m.endRound()
	root.end(c.Env.Now())
	return r, nil
}

// growth is the median of the last quarter of xs over the median of the
// first quarter: 1 when a per-call cost does not depend on history.
func growth(xs []float64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return 0
	}
	first := percentile(xs[:q], 50)
	last := percentile(xs[len(xs)-q:], 50)
	if first == 0 {
		return 0
	}
	return last / first
}

// --- web-restart ------------------------------------------------------------------

const (
	webPageBytes   = 11 * 1024
	webClients     = 5
	webRestartEach = 5 * sim.Second
	webSimTime     = 3000 * sim.Second
)

// restarter is the benchmark's snapshot.Restartable around NetBack: it
// spans each restart and collects each completed restart's downtime from
// the engine, which records it after the wrapped call returns.
type restarter struct {
	inner  snapshot.Restartable
	eng    *snapshot.Engine
	tr     *tracer
	parent spanID

	downtimes []float64 // ms, one per completed restart
}

func (w *restarter) Dom() xtypes.DomID { return w.inner.Dom() }
func (w *restarter) Name() string      { return w.inner.Name() }

func (w *restarter) Restart(p *sim.Proc, fast bool) {
	w.collect()
	sp := w.tr.start("netdrv.Restart", w.parent, p.Now())
	w.inner.Restart(p, fast)
	sp.end(p.Now())
}

// collect records the downtime of a restart the engine finished since the
// last call.
func (w *restarter) collect() {
	st, _ := w.eng.Stats(w.Dom())
	if st.Restarts > len(w.downtimes) {
		w.downtimes = append(w.downtimes, st.LastDowntime.Milliseconds())
	}
}

// bootGuest sets up one Xoar host with one §6.1 guest.
func bootGuest(seed int64, m *meter, parent spanID, name string) (*experiments.Rig, *guest.VM, *telemetry.Registry, error) {
	var reg *telemetry.Registry
	if m.tr != nil {
		reg = telemetry.New()
	}
	sp := m.tr.start("experiments.BootRigOpts", parent, 0)
	rig, err := experiments.BootRigOpts(experiments.Xoar, seed, boot.Options{Telemetry: reg})
	if err != nil {
		return nil, nil, nil, err
	}
	sp.end(rig.Env.Now())
	sp = m.tr.start("experiments.NewGuest", parent, rig.Env.Now())
	vm, err := rig.NewGuest(name)
	sp.end(rig.Env.Now())
	if err != nil {
		rig.Close()
		return nil, nil, nil, err
	}
	return rig, vm, reg, nil
}

func webRestart(seed int64, sz sizes, m *meter) (*round, error) {
	r := &round{m: m, sim: map[string]float64{}, layer: map[string]float64{}}
	root := m.tr.start("web-restart", 0, 0)
	m.beginSetup()
	rig, vm, reg, err := bootGuest(seed, m, root.id, "web")
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	nb := rig.PL.NetBacks[0]
	rs := &restarter{inner: nb.AsRestartable(), eng: rig.PL.Engine, tr: m.tr, parent: root.id}
	sp := m.tr.start("snapshot.Manage", root.id, rig.Env.Now())
	err = rig.PL.Engine.Manage(rs, snapshot.Policy{Kind: snapshot.PolicyTimer, Interval: webRestartEach, Fast: true})
	sp.end(rig.Env.Now())
	if err != nil {
		return nil, err
	}
	// Every response leaving the wire marks its request; a bitset keeps the
	// check's own footprint out of the heap figures.
	answered := make([]uint64, sz.requests/64+1)
	outOfRange := 0
	nb.TxSink = func(g xtypes.DomID, pkt netdrv.Packet) {
		if g != vm.Dom {
			return
		}
		if pkt.Seq < 1 || pkt.Seq > int64(sz.requests) {
			outOfRange++
			return
		}
		answered[pkt.Seq/64] |= 1 << (pkt.Seq % 64)
	}
	base := baseline(rig, reg)
	m.endSetup(rig.Env)

	// The seed sets where in the restart cycle the clients start, and so
	// which requests an outage catches.
	phase := sim.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(webRestartEach)))
	var res guest.HTTPBenchResult
	done := false
	rig.Env.Spawn("ab", func(p *sim.Proc) {
		p.Sleep(phase)
		sp := m.tr.start("guest.StartHTTPServer", root.id, p.Now())
		srv := vm.StartHTTPServer(webPageBytes)
		sp.end(p.Now())
		sp = m.tr.start("guest.RunHTTPBench", root.id, p.Now())
		res = vm.RunHTTPBench(p, sz.requests, webClients, webPageBytes)
		sp.end(p.Now())
		srv.Stop()
		done = true
	})
	err = m.drive(rig.Env, func() bool { return done }, webSimTime, root.id)
	m.endTimed(rig.Env)
	if err != nil {
		return nil, fmt.Errorf("web-restart: %w", err)
	}
	rs.collect()

	served := 0
	for _, w := range answered {
		served += bits.OnesCount64(w)
	}
	r.ops = float64(res.Requests - res.Errors)
	r.attempted, r.failed = res.Requests, res.Errors
	r.check(res.Requests == sz.requests, "web-restart: ran %d requests, want %d", res.Requests, sz.requests)
	r.check(served+res.Errors == res.Requests, "web-restart: served %d + errors %d != requests %d",
		served, res.Errors, res.Requests)
	r.check(outOfRange == 0, "web-restart: %d responses for requests never sent", outOfRange)

	st, _ := rig.PL.Engine.Stats(rs.Dom())
	r.check(st.Restarts > 0, "web-restart: NetBack never restarted")
	r.sim["sim_ops_per_s"] = res.RequestsPerSecond()
	r.sim["sim_latency_ms"] = res.MeanLatency.Milliseconds()
	r.sim["workload.error_rate"] = float64(res.Errors) / float64(res.Requests)
	r.sim["guest.latency_max_ms"] = res.MaxLatency.Milliseconds()
	r.sim["snapshot.restarts"] = float64(st.Restarts)
	r.sim["snapshot.restart_errors"] = float64(st.Errors)
	r.sim["snapshot.downtime_ms_p50"] = percentile(rs.downtimes, 50)
	base.read(r, rig, reg)
	m.endRound()
	root.end(rig.Env.Now())
	return r, nil
}

// --- bulk-disk --------------------------------------------------------------------

const bulkSimTime = 6000 * sim.Second

// bulkBytes draws the file size from the seed: the nominal size moved by up
// to 32 MiB either way, in whole MiB (a multiple of the 64 KiB chunk the
// sender pushes, so the transfer ends exactly on the requested byte). The
// range is narrow on purpose: the backend's buffers grow by doubling, so
// sizes far apart would differ in allocation per MiB for that reason alone.
func bulkBytes(seed int64, nominalMiB int) int64 {
	spread := min(32, nominalMiB/2)
	mib := nominalMiB + rand.New(rand.NewSource(seed)).Intn(2*spread+1) - spread
	return int64(mib) << 20
}

func bulkDisk(seed int64, sz sizes, m *meter) (*round, error) {
	r := &round{m: m, sim: map[string]float64{}, layer: map[string]float64{}}
	root := m.tr.start("bulk-disk", 0, 0)
	m.beginSetup()
	rig, vm, reg, err := bootGuest(seed, m, root.id, "wget")
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	want := bulkBytes(seed, sz.bulkMiB)
	disk := rig.PL.BlkBacks[0].Disk
	written0 := disk.WriteBytes
	base := baseline(rig, reg)
	m.endSetup(rig.Env)

	var res guest.FetchResult
	done := false
	rig.Env.Spawn("wget", func(p *sim.Proc) {
		sp := m.tr.start("guest.Fetch", root.id, p.Now())
		res = vm.Fetch(p, want, guest.SinkDisk)
		sp.end(p.Now())
		done = true
	})
	err = m.drive(rig.Env, func() bool { return done }, bulkSimTime, root.id)
	m.endTimed(rig.Env)
	if err != nil {
		return nil, fmt.Errorf("bulk-disk: %w", err)
	}

	mib := float64(res.Bytes) / (1 << 20)
	r.ops = mib
	r.attempted = int(want >> 20)
	r.failed = int((want - min(res.Bytes, want) + (1<<20 - 1)) >> 20)
	written := disk.WriteBytes - written0
	r.check(res.Bytes == want, "bulk-disk: received %d bytes, requested %d", res.Bytes, want)
	r.check(written == want, "bulk-disk: %d bytes landed on disk, requested %d", written, want)

	secs := res.Elapsed.Seconds()
	r.sim["sim_ops_per_s"] = mib / secs
	r.sim["sim_latency_ms"] = secs * 1000 / mib
	r.sim["workload.error_rate"] = float64(r.failed) / float64(r.attempted)
	r.sim["guest.retransmits"] = float64(res.Retransmits)
	r.sim["guest.stalls"] = float64(res.Stalls)
	base.read(r, rig, reg)
	m.endRound()
	root.end(rig.Env.Now())
	return r, nil
}

// --- layer readings ---------------------------------------------------------------

// hostBase holds the single-host readings taken when set-up ends, so the
// end-of-round readings cover the timed region only.
type hostBase struct {
	denied, freeMB int
	tel            telemetry.Snapshot
}

func baseline(rig *experiments.Rig, reg *telemetry.Registry) hostBase {
	return hostBase{denied: rig.HV.DeniedCalls, freeMB: rig.HV.MM.FreeMB(), tel: reg.Snapshot()}
}

// read fills in the hypervisor and memory counters, and on traced rounds
// the NetBack and BlkBack readings. Those come from the telemetry registry
// rather than the rings' own counters, which a backend restart resets;
// descriptors per wakeup is the pumps' batch-size histogram, sum over
// count. The Builder is idle once set-up has created the guest, so its
// readings are left at 0.
func (b hostBase) read(r *round, rig *experiments.Rig, reg *telemetry.Registry) {
	r.sim["hv.domains_live_end"] = float64(len(rig.HV.Domains()))
	r.sim["hv.denied_calls"] = float64(rig.HV.DeniedCalls - b.denied)
	r.sim["mm.free_MB_delta"] = float64(rig.HV.MM.FreeMB() - b.freeMB)
	if reg == nil {
		return
	}
	now := reg.Snapshot()
	counter := func(id string) float64 { return counterValue(now, id) - counterValue(b.tel, id) }
	perWakeup := func(id string) float64 {
		sum, n := histTotals(now, id)
		sum0, n0 := histTotals(b.tel, id)
		if n == n0 {
			return 0
		}
		return (sum - sum0) / float64(n-n0)
	}
	sent := counter("netback_notify_sent_total{dir=rx}") + counter("netback_notify_sent_total{dir=tx}")
	sup := counter("netback_notify_suppressed_total{dir=rx}") + counter("netback_notify_suppressed_total{dir=tx}")
	r.layer["netdrv.rx_descs_per_wakeup"] = perWakeup("netback_batch_size{dir=rx}")
	r.layer["netdrv.tx_descs_per_wakeup"] = perWakeup("netback_batch_size{dir=tx}")
	r.layer["netdrv.notifies_per_op"] = sent / r.ops
	if sent+sup > 0 {
		r.layer["netdrv.suppressed_frac"] = sup / (sent + sup)
	}
	r.layer["blkdrv.descs_per_wakeup"] = perWakeup("blkback_batch_size")
	r.layer["blkdrv.notifies_per_op"] = (counter("blkback_notify_sent_total{dir=req}") +
		counter("blkback_notify_sent_total{dir=resp}")) / r.ops
}

func counterValue(s telemetry.Snapshot, id string) float64 {
	for _, c := range s.Counters {
		if c.Name == id {
			return float64(c.Value)
		}
	}
	return 0
}

func histTotals(s telemetry.Snapshot, id string) (sum float64, count uint64) {
	for _, h := range s.Histograms {
		if h.Name == id {
			return h.Sum, h.Count
		}
	}
	return 0, 0
}

func builderLayer(out map[string]float64, regs []*telemetry.Registry) {
	p50 := func(h telemetry.HistogramSnap) float64 { return h.P50 }
	p99 := func(h telemetry.HistogramSnap) float64 { return h.P99 }
	out["builder.queue_wait_ms_p50"] = seriesQuantile(regs, "builder_queue_wait_ms", 0.5, p50)
	out["builder.queue_wait_ms_p99"] = seriesQuantile(regs, "builder_queue_wait_ms", 0.99, p99)
	out["builder.build_latency_ms_p50"] = seriesQuantile(regs, "builder_build_latency_ms", 0.5, p50)
	out["builder.build_latency_ms_p99"] = seriesQuantile(regs, "builder_build_latency_ms", 0.99, p99)
	var builds int64
	for _, reg := range regs {
		builds += reg.Counter("builder_builds_total").Value()
	}
	out["builder.builds"] = float64(builds)
}

// counterSum adds every series of the named counter across the fleet.
func counterSum(f *telemetry.Fleet, name string) int64 {
	var n int64
	for _, c := range f.Snapshot().Counters {
		if metricName(c.Name) == name {
			n += c.Value
		}
	}
	return n
}

// seriesQuantile combines the q-quantile of every series of the named
// histogram across registries; get picks that quantile from a series. The
// registries keep buckets, not samples, so the series cannot be merged
// exactly; the result is the count-weighted q-quantile of the per-series
// estimates.
func seriesQuantile(regs []*telemetry.Registry, name string, q float64, get func(telemetry.HistogramSnap) float64) float64 {
	type est struct {
		v float64
		n uint64
	}
	var ests []est
	var total uint64
	for _, reg := range regs {
		for _, h := range reg.Snapshot().Histograms {
			if metricName(h.Name) == name && h.Count > 0 {
				ests = append(ests, est{get(h), h.Count})
				total += h.Count
			}
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i].v < ests[j].v })
	rank := q * float64(total)
	var cum float64
	for _, e := range ests {
		cum += float64(e.n)
		if cum >= rank {
			return e.v
		}
	}
	return ests[len(ests)-1].v
}

// metricName strips the label set from a canonical metric ID.
func metricName(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}
