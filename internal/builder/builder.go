// Package builder implements the Xoar Builder: the one component that keeps
// domain-construction privileges after boot (§5.4). Everything else asks it.
//
// The Builder is deliberately tiny — the paper's nanOS image is ~8K lines of
// source (Table 6.1) — because it is the whole steady-state TCB: it is the
// only domain holding both HyperMapForeign and HyperDomctlPriv, the pair the
// security analyzer treats as "can touch anything" (§6.2). Its job is VM
// construction: requests arrive over a queue and are served one at a time,
// so every build is audited against the requester's standing before any
// privileged hypercall is issued. Images come from a known-good catalog;
// untrusted kernels are never mapped by the Builder itself but handed to a
// bootloader domain that loads them from inside (§5.5). A toolstack may
// request plain guests and a QemuVM for guests it parents — nothing else.
//
// Driver shards are delegated to the Builder at boot (boot.go). The host's
// one restart engine, snapshot.Engine, acts with the Builder's identity and
// rolls those shards back to their boot-time image (§3.3); it checks the
// Builder's whitelist and delegation itself, so this package keeps no
// restart state.
package builder

import (
	"fmt"

	"xoar/internal/hv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

// Build CPU cost: hypercall work plus scrubbing the new domain's pages,
// charged to the Builder's own vCPU.
const (
	buildCompute = 2 * sim.Millisecond
	scrubPerMB   = 4 * sim.Microsecond
)

// Request describes one domain the Builder should construct.
type Request struct {
	// Requester is the domain (or boot-time principal) asking for the
	// build. All privilege checks are made against it, and it becomes the
	// new domain's parent toolstack (§5.6).
	Requester xtypes.DomID
	// Name of the new domain.
	Name string
	// Image names an entry in the known-good catalog. Ignored when
	// CustomKernel or QemuFor is set.
	Image string
	// CustomKernel requests a guest-supplied kernel. The Builder refuses to
	// map untrusted code and instead boots the bootloader image, which
	// loads the kernel from inside the new domain (§5.5).
	CustomKernel bool
	// MemMB overrides the image's default reservation (0 = default).
	MemMB int
	// VCPUs for the new domain (0 = 1).
	VCPUs int
	// Shard marks the domain as a Xoar shard. Only authorized requesters
	// may ask for shards.
	Shard bool
	// QemuFor requests a device-model stub domain for the named HVM guest.
	// The Builder fixes the image and privilege block itself and checks the
	// requester parents the guest. DomID 0 never identifies a qemu target.
	QemuFor xtypes.DomID
	// Privileges to assign to the new domain. Only authorized requesters
	// may ask for a non-empty assignment.
	Privileges hv.Assignment
}

// qemu reports whether the request is a device-model build. The Request
// zero value leaves QemuFor at 0 (= the bootstrapper / Dom0), which can
// never be an HVM guest, so 0 means "unset".
func (r Request) qemu() bool {
	return r.QemuFor != 0 && r.QemuFor != xtypes.DomIDNone
}

// Builder is the domain-building service. Create with New, then run Serve
// in its own process; Submit requests from any other process.
type Builder struct {
	// XenStoreDom, when set, receives a pre-created grant entry on every
	// new domain — the extra VM-build step that lets XenStore-Logic run
	// without foreign-mapping privilege (§5.4). DomIDNone disables it.
	XenStoreDom xtypes.DomID

	// Builds counts completed constructions; Denied counts refused
	// requests.
	Builds int
	Denied int

	hv    *hv.Hypervisor
	dom   xtypes.DomID
	cat   *osimage.Catalog
	xs    *xenstore.Conn
	queue *sim.Chan[*job]

	// tel is the telemetry registry (nil = disabled); m holds pre-resolved
	// metric handles so the hot path pays one nil check per observation.
	tel *telemetry.Registry
	m   builderMetrics

	// authorized lists principals allowed privileged builds (the
	// Bootstrapper during boot; the Builder itself afterwards).
	authorized map[xtypes.DomID]bool
}

// builderMetrics are the Builder's pre-resolved telemetry handles; all nil
// when telemetry is disabled (every method no-ops on nil).
type builderMetrics struct {
	queueDepth    *telemetry.Histogram // depth seen by each Submit at enqueue
	queueWait     *telemetry.Histogram // ms a job waited before service
	buildMS       *telemetry.Histogram // ms from service start to booted
	builds        *telemetry.Counter
	denied        *telemetry.Counter
	batches       *telemetry.Counter   // SubmitAll batches served
	batchSize     *telemetry.Histogram // requests per batch
	batchMakespan *telemetry.Histogram // ms from batch service start to last boot
}

// job is one queue entry: either a single request (req/reply) or a whole
// SubmitAll batch (batch/batchReply). Exactly one of the two reply channels
// is set.
type job struct {
	req   Request
	reply *sim.Chan[jobResult]

	batch      []Request
	batchReply *sim.Chan[batchResult]

	enq sim.Time // when Submit/SubmitAll enqueued the job
}

type jobResult struct {
	dom xtypes.DomID
	err error
}

// batchResult carries per-slot outcomes for a SubmitAll batch; doms and errs
// are index-aligned with the submitted requests.
type batchResult struct {
	doms []xtypes.DomID
	errs []error
}

// bootJob hands a freshly constructed domain to the batch boot supervisor.
type bootJob struct {
	name string
	boot sim.Duration
}

// New returns a Builder bound to the given domain. xs must be a privileged
// XenStore connection: the Builder registers every newcomer in the store.
func New(h *hv.Hypervisor, dom xtypes.DomID, cat *osimage.Catalog, xs *xenstore.Conn) *Builder {
	return &Builder{
		XenStoreDom: xtypes.DomIDNone,
		hv:          h,
		dom:         dom,
		cat:         cat,
		xs:          xs,
		queue:       sim.NewChan[*job](h.Env),
		authorized:  make(map[xtypes.DomID]bool),
	}
}

// Dom returns the domain the Builder runs in.
func (b *Builder) Dom() xtypes.DomID { return b.dom }

// SetMetrics attaches a telemetry registry to the Builder. Safe with nil
// (telemetry disabled); call before Serve starts.
func (b *Builder) SetMetrics(reg *telemetry.Registry) {
	b.tel = reg
	b.m = builderMetrics{
		queueDepth: reg.Histogram("builder_queue_depth", telemetry.DepthBuckets),
		queueWait:  reg.Histogram("builder_queue_wait_ms", telemetry.LatencyMSBuckets),
		buildMS:    reg.Histogram("builder_build_latency_ms", telemetry.LatencyMSBuckets),
		builds:     reg.Counter("builder_builds_total"),
		denied:     reg.Counter("builder_denied_total"),

		batches:       reg.Counter("builder_batches_total"),
		batchSize:     reg.Histogram("builder_batch_size", telemetry.DepthBuckets),
		batchMakespan: reg.Histogram("builder_batch_makespan_ms", telemetry.LatencyMSBuckets),
	}
}

// Authorize allows dom to request privileged builds (shards, device
// passthrough, hypercall whitelists).
func (b *Builder) Authorize(dom xtypes.DomID) { b.authorized[dom] = true }

// Revoke withdraws a principal's privileged-build standing — how the
// Bootstrapper is dropped from the trust set once boot completes (§5.2).
func (b *Builder) Revoke(dom xtypes.DomID) { delete(b.authorized, dom) }

// Serve processes build requests one at a time. Serialization is part of
// the security argument — every privileged hypercall the Builder issues is
// attributable to exactly one validated request — and part of the paper's
// boot-time story: domains built through the Builder come up one after
// another, which is why Xoar's ping-ready speedup (1.15x, through the
// Builder) trails its console speedup (1.5x, direct parallel boot) in
// Table 6.2.
func (b *Builder) Serve(p *sim.Proc) {
	for {
		j, ok := b.queue.Recv(p)
		if !ok {
			return
		}
		b.m.queueWait.Observe(p.Now().Sub(j.enq).Milliseconds())
		if j.batch != nil {
			b.serveBatch(p, j)
			continue
		}
		start := p.Now()
		sp := b.tel.StartSpan("builder", "build:"+j.req.Name, start)
		csp := sp.StartChild("construct", start)
		dom, boot, err := b.build(p, j.req)
		csp.EndAt(p.Now())
		if err == nil {
			// The Builder supervises the newcomer's bring-up before
			// acknowledging the request.
			bsp := sp.StartChild("boot", p.Now())
			p.Sleep(boot)
			bsp.EndAt(p.Now())
			b.m.buildMS.Observe(p.Now().Sub(start).Milliseconds())
		}
		sp.EndAt(p.Now())
		j.reply.Send(jobResult{dom: dom, err: err})
	}
}

// serveBatch runs one SubmitAll batch as a two-stage pipeline.
//
// Stage 0 (validation, hoisted): every request is resolved before the first
// page is scrubbed. A malformed or unprivileged request rejects the whole
// batch — its slot carries the resolve error, every other slot carries
// xtypes.ErrBatchAborted — and no build compute is consumed. Hoisting keeps
// the fail-fast property of Submit while making the batch atomic: callers
// never receive a half-built fleet because request k was misauthorized.
//
// Stage 1/2 (construct ∥ boot): construction stays on the Builder's vCPU,
// one domain at a time, exactly as the single-request path — every
// privileged hypercall remains attributable to one validated request. But
// supervised boots move to a dedicated supervisor process, so while domain
// i sleeps through bring-up the Builder is already computing page tables
// and scrubbing pages for domain i+1. Boots themselves stay strictly
// serialized (the supervisor sleeps them one after another, in FIFO
// order), preserving the paper's one-at-a-time bring-up through the
// Builder (Table 6.2): the pipeline overlaps scrub cost with boot latency,
// it does not parallelize boots.
//
// The batch occupies the serve loop until its last boot completes, so
// concurrent Submit callers keep the FIFO guarantees they had before.
func (b *Builder) serveBatch(p *sim.Proc, j *job) {
	n := len(j.batch)
	doms := make([]xtypes.DomID, n)
	errs := make([]error, n)
	imgs := make([]osimage.Image, n)
	resolved := make([]Request, n)
	for i := range doms {
		doms[i] = xtypes.DomIDNone
	}

	// Stage 0: validate everything up front; no compute spent on failure.
	invalid := false
	for i, req := range j.batch {
		img, rr, err := b.resolve(req)
		if err != nil {
			errs[i] = err
			invalid = true
			b.Denied++
			b.m.denied.Inc()
			continue
		}
		imgs[i], resolved[i] = img, rr
	}
	if invalid {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = fmt.Errorf("builder: request %q: %w", j.batch[i].Name, xtypes.ErrBatchAborted)
			}
		}
		j.batchReply.Send(batchResult{doms: doms, errs: errs})
		return
	}

	start := p.Now()
	sp := b.tel.StartSpan("builder", fmt.Sprintf("build-batch[%d]", n), start)
	b.m.batches.Inc()
	b.m.batchSize.Observe(float64(n))

	// The boot supervisor serializes bring-up off the Builder's vCPU.
	bootQ := sim.NewChan[bootJob](b.hv.Env)
	bootsDone := sim.NewChan[struct{}](b.hv.Env)
	b.hv.Env.Spawn("builder-batch-boot", func(bp *sim.Proc) {
		for {
			bj, ok := bootQ.Recv(bp)
			if !ok {
				break
			}
			bsp := sp.StartChild("boot:"+bj.name, bp.Now())
			bp.Sleep(bj.boot)
			bsp.EndAt(bp.Now())
		}
		bootsDone.Send(struct{}{})
	})

	for i := range resolved {
		csp := sp.StartChild("construct:"+resolved[i].Name, p.Now())
		dom, boot, err := b.construct(p, imgs[i], resolved[i])
		csp.EndAt(p.Now())
		if err != nil {
			errs[i] = err
			continue
		}
		doms[i] = dom
		bootQ.Send(bootJob{name: resolved[i].Name, boot: boot})
	}
	bootQ.Close()
	if _, ok := bootsDone.Recv(p); !ok {
		return
	}
	sp.EndAt(p.Now())
	b.m.batchMakespan.Observe(p.Now().Sub(start).Milliseconds())
	j.batchReply.Send(batchResult{doms: doms, errs: errs})
}

// Submit enqueues a request and waits until the new domain is built and
// booted. Safe to call from any process except the Builder's own serve
// loop (which would deadlock — internal callers use BuildDirect).
func (b *Builder) Submit(p *sim.Proc, req Request) (xtypes.DomID, error) {
	j := &job{req: req, reply: sim.NewChan[jobResult](b.hv.Env), enq: b.hv.Env.Now()}
	b.queue.Send(j)
	b.m.queueDepth.Observe(float64(b.queue.Len()))
	res, ok := j.reply.Recv(p)
	if !ok {
		return xtypes.DomIDNone, fmt.Errorf("builder: %w", xtypes.ErrShutdown)
	}
	if res.err != nil {
		return xtypes.DomIDNone, res.err
	}
	return res.dom, nil
}

// SubmitAll enqueues a batch of requests as one unit of Builder work and
// waits until every domain is built and booted (or the batch is rejected).
// Results are index-aligned with reqs: doms[i] is the new domain for
// reqs[i] (DomIDNone on failure) and errs[i] its error (nil on success).
//
// The batch is validated in full before any build compute is spent; one
// invalid request fails the whole batch, with the remaining slots carrying
// xtypes.ErrBatchAborted. Valid batches run as a two-stage pipeline (see
// serveBatch): scrubbing of domain i+1 overlaps the supervised boot of
// domain i, so the batch makespan is strictly below the serial Submit sum
// while boots — and the FIFO order seen by concurrent Submit callers —
// remain exactly as serialized as before.
func (b *Builder) SubmitAll(p *sim.Proc, reqs []Request) ([]xtypes.DomID, []error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	batch := make([]Request, len(reqs))
	copy(batch, reqs)
	j := &job{batch: batch, batchReply: sim.NewChan[batchResult](b.hv.Env), enq: b.hv.Env.Now()}
	b.queue.Send(j)
	b.m.queueDepth.Observe(float64(b.queue.Len()))
	res, ok := j.batchReply.Recv(p)
	if !ok {
		doms := make([]xtypes.DomID, len(reqs))
		errs := make([]error, len(reqs))
		for i := range errs {
			doms[i] = xtypes.DomIDNone
			errs[i] = fmt.Errorf("builder: %w", xtypes.ErrShutdown)
		}
		return doms, errs
	}
	return res.doms, res.errs
}

// BuildDirect performs a build synchronously in the caller's process,
// bypassing the queue. Used by the rolling-upgrade path, which runs with
// the Builder's own identity and must not deadlock the serve loop.
func (b *Builder) BuildDirect(p *sim.Proc, req Request) (xtypes.DomID, error) {
	start := p.Now()
	sp := b.tel.StartSpan("builder", "build-direct:"+req.Name, start)
	defer func() { sp.EndAt(p.Now()) }()
	dom, boot, err := b.build(p, req)
	if err != nil {
		return xtypes.DomIDNone, err
	}
	p.Sleep(boot)
	b.m.buildMS.Observe(p.Now().Sub(start).Milliseconds())
	return dom, nil
}

// trusted reports whether dom may request privileged builds: the Builder
// itself (replacing its wards, as a driver upgrade does) or a principal on the authorized list.
func (b *Builder) trusted(dom xtypes.DomID) bool {
	return dom == b.dom || b.authorized[dom]
}

// resolve validates req against the requester's standing and pins down the
// image and privilege block to apply. It returns the (possibly rewritten)
// request alongside the image.
func (b *Builder) resolve(req Request) (osimage.Image, Request, error) {
	// The requester must be a live domain, or a principal on the
	// authorized list (the Bootstrapper exists only during boot).
	if !b.trusted(req.Requester) {
		if _, err := b.hv.Domain(req.Requester); err != nil {
			return osimage.Image{}, req, fmt.Errorf("builder: requester %v unknown: %w", req.Requester, xtypes.ErrPerm)
		}
	}

	if req.qemu() {
		target, err := b.hv.Domain(req.QemuFor)
		if err != nil {
			return osimage.Image{}, req, fmt.Errorf("builder: qemu target %v: %w", req.QemuFor, err)
		}
		if !b.trusted(req.Requester) && target.ParentTool() != req.Requester {
			return osimage.Image{}, req, fmt.Errorf("builder: qemu for foreign guest %v requested by %v: %w",
				req.QemuFor, req.Requester, xtypes.ErrPerm)
		}
		// Device-model builds carry a fixed image and privilege block: a
		// stub-domain QEMU with foreign-map rights over exactly its guest
		// (§5.6). The requester has no say in either.
		img, err := b.cat.Lookup(osimage.ImgQemu)
		if err != nil {
			return osimage.Image{}, req, err
		}
		req.Image = img.Name
		req.CustomKernel = false
		req.Shard = true
		req.Privileges = hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperMapForeign}}
		return img, req, nil
	}

	// Shards and privilege assignments are reserved for authorized
	// principals; a toolstack may only ask for plain guests.
	if (req.Shard || !assignmentEmpty(req.Privileges)) && !b.trusted(req.Requester) {
		return osimage.Image{}, req, fmt.Errorf("builder: privileged build %q by %v: %w",
			req.Name, req.Requester, xtypes.ErrPerm)
	}

	if req.CustomKernel {
		img, err := b.cat.Lookup(osimage.ImgBootloader)
		if err != nil {
			return osimage.Image{}, req, err
		}
		if req.MemMB <= 0 {
			// The bootloader's own footprint is not the guest's: default
			// to the standard guest reservation.
			if gi, gerr := b.cat.Lookup(osimage.ImgGuestPV); gerr == nil {
				req.MemMB = gi.MemMB
			}
		}
		req.Image = img.Name
		return img, req, nil
	}

	img, err := b.cat.Lookup(req.Image)
	if err != nil {
		return osimage.Image{}, req, fmt.Errorf("builder: image %q: %w", req.Image, err)
	}
	return img, req, nil
}

// build validates, constructs and releases one domain, returning its ID and
// the boot time the caller should charge.
func (b *Builder) build(p *sim.Proc, req Request) (xtypes.DomID, sim.Duration, error) {
	img, req, err := b.resolve(req)
	if err != nil {
		b.Denied++
		b.m.denied.Inc()
		return xtypes.DomIDNone, 0, err
	}
	return b.construct(p, img, req)
}

// construct spends the build compute and creates one domain from an
// already-resolved request. Split from build so serveBatch can validate a
// whole batch before the first page is scrubbed.
func (b *Builder) construct(p *sim.Proc, img osimage.Image, req Request) (xtypes.DomID, sim.Duration, error) {
	memMB := req.MemMB
	if memMB <= 0 {
		memMB = img.MemMB
	}
	// Page-table setup and scrubbing run on the Builder's own vCPU.
	b.hv.Compute(p, b.dom, buildCompute+sim.Duration(memMB)*scrubPerMB)

	d, err := b.hv.CreateDomain(b.dom, hv.DomainConfig{
		Name: req.Name, MemMB: memMB, VCPUs: req.VCPUs,
		Shard: req.Shard, OSImage: img.Name,
	})
	if err != nil {
		return xtypes.DomIDNone, 0, fmt.Errorf("builder: create %q: %w", req.Name, err)
	}
	if err := b.setup(d.ID, req); err != nil {
		// Abort cleanly: a half-privileged domain must not survive.
		b.hv.DestroyDomain(b.dom, d.ID, "builder: aborted build")
		return xtypes.DomIDNone, 0, err
	}
	b.Builds++
	b.m.builds.Inc()
	return d.ID, img.BootTime(), nil
}

// setup applies privileges, registers the newcomer and releases it.
func (b *Builder) setup(id xtypes.DomID, req Request) error {
	if !assignmentEmpty(req.Privileges) {
		if err := b.hv.AssignPrivileges(b.dom, id, req.Privileges); err != nil {
			return fmt.Errorf("builder: privileges for %q: %w", req.Name, err)
		}
	}
	if req.qemu() {
		if err := b.hv.SetPrivilegedFor(b.dom, id, req.QemuFor); err != nil {
			return err
		}
	}
	if err := b.register(id, req); err != nil {
		return err
	}
	if b.XenStoreDom != xtypes.DomIDNone {
		// The extra VM-build step that lets XenStore run deprivileged: the
		// Builder pre-creates the grant entry for the store ring so the
		// Logic never needs to map foreign memory itself (§5.4).
		if _, err := b.hv.GrantFor(b.dom, id, b.XenStoreDom, 0, false); err != nil {
			return err
		}
	}
	if err := b.hv.Unpause(b.dom, id); err != nil {
		return err
	}
	// Handoff comes last: once the requester is recorded as parent
	// toolstack, VM-management rights over the newcomer are its — the
	// Builder keeps nothing it does not need (§5.6).
	return b.hv.SetParentTool(b.dom, id, req.Requester)
}

// register creates the domain's XenStore tree and hands it over: the domain
// owns its tree, the world may read it (device discovery).
func (b *Builder) register(id xtypes.DomID, req Request) error {
	base := fmt.Sprintf("/local/domain/%d", id)
	if err := b.xs.Mkdir(xenstore.TxNone, base); err != nil {
		return err
	}
	if err := b.xs.Write(xenstore.TxNone, base+"/name", req.Name); err != nil {
		return err
	}
	return b.xs.SetPerms(base, xenstore.Perms{Owner: id, Read: []xtypes.DomID{xtypes.DomIDNone}})
}

func assignmentEmpty(a hv.Assignment) bool {
	return !a.ControlAll && len(a.PCIDevices) == 0 && len(a.Hypercalls) == 0 &&
		len(a.DelegateTo) == 0 && len(a.IOPorts) == 0
}
