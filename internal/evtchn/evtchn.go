// Package evtchn implements Xen-style event channels: the data-free
// signalling mechanism used for inter-VM notification and virtualized
// interrupt (VIRQ) delivery (§4.2 of the paper).
//
// A channel endpoint is a port within a domain. Ports are created unbound
// (naming the single remote domain allowed to bind), bound interdomain
// (connecting two ports), or bound to a VIRQ. Notification sets a pending bit
// on the remote endpoint and delivers an upcall; the receiving side either
// registers a handler or blocks a sim process in Wait, mirroring how real
// backends either take interrupts or sleep in their event loops.
package evtchn

import (
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

type chanState uint8

const (
	stateFree chanState = iota
	stateUnbound
	stateInterdomain
	stateVIRQ
)

type channel struct {
	state      chanState
	remoteDom  xtypes.DomID // for unbound: the domain allowed to bind
	remotePort xtypes.Port  // valid in stateInterdomain
	virq       xtypes.VIRQ  // valid in stateVIRQ

	pending bool
	masked  bool
	sig     *sim.Signal
	handler func()
	// upcall is the scheduled-delivery closure, bound once per channel when a
	// handler is first registered. It reads ch.handler at fire time, so the
	// per-delivery dispatch path passes a pre-existing func value to sim.Post
	// instead of allocating a fresh closure (and cancel token) per event.
	upcall func()

	// notifyCount counts deliveries, for tests and the audit trail.
	notifyCount int
}

type domainPorts struct {
	ports    map[xtypes.Port]*channel
	nextPort xtypes.Port
}

// Table is the system-wide event-channel state, owned by the hypervisor.
type Table struct {
	env     *sim.Env
	domains map[xtypes.DomID]*domainPorts
}

// NewTable returns an empty event-channel table.
func NewTable(env *sim.Env) *Table {
	return &Table{env: env, domains: make(map[xtypes.DomID]*domainPorts)}
}

// AddDomain registers a domain with the table. Called at domain creation.
func (t *Table) AddDomain(id xtypes.DomID) {
	if _, ok := t.domains[id]; !ok {
		t.domains[id] = &domainPorts{ports: make(map[xtypes.Port]*channel), nextPort: 1}
	}
}

// RemoveDomain closes all of a domain's ports and unregisters it. Peer
// endpoints of interdomain channels revert to unbound-broken state, which
// readers observe as spurious wakeups with no pending bit — exactly the
// disconnection split drivers must renegotiate around.
func (t *Table) RemoveDomain(id xtypes.DomID) {
	dp, ok := t.domains[id]
	if !ok {
		return
	}
	for port := range dp.ports {
		t.close(id, port)
	}
	delete(t.domains, id)
}

func (t *Table) domain(id xtypes.DomID) (*domainPorts, error) {
	dp, ok := t.domains[id]
	if !ok {
		return nil, fmt.Errorf("evtchn: %v: %w", id, xtypes.ErrNoDomain)
	}
	return dp, nil
}

func (t *Table) lookup(id xtypes.DomID, port xtypes.Port) (*channel, error) {
	dp, err := t.domain(id)
	if err != nil {
		return nil, err
	}
	ch, ok := dp.ports[port]
	if !ok || ch.state == stateFree {
		return nil, fmt.Errorf("evtchn: %v port %d: %w", id, port, xtypes.ErrBadPort)
	}
	return ch, nil
}

func (dp *domainPorts) alloc(env *sim.Env) (xtypes.Port, *channel) {
	port := dp.nextPort
	dp.nextPort++
	ch := &channel{sig: sim.NewSignal(env)}
	dp.ports[port] = ch
	return port, ch
}

// AllocUnbound creates a new unbound port in owner that remote may later bind
// to. This is the first half of the split-driver connection handshake.
func (t *Table) AllocUnbound(owner, remote xtypes.DomID) (xtypes.Port, error) {
	dp, err := t.domain(owner)
	if err != nil {
		return xtypes.PortInvalid, err
	}
	port, ch := dp.alloc(t.env)
	ch.state = stateUnbound
	ch.remoteDom = remote
	return port, nil
}

// BindInterdomain connects a new port in local to remotePort in remoteDom.
// The remote port must be unbound and must name local as its allowed binder.
func (t *Table) BindInterdomain(local, remoteDom xtypes.DomID, remotePort xtypes.Port) (xtypes.Port, error) {
	ldp, err := t.domain(local)
	if err != nil {
		return xtypes.PortInvalid, err
	}
	rch, err := t.lookup(remoteDom, remotePort)
	if err != nil {
		return xtypes.PortInvalid, err
	}
	if rch.state != stateUnbound {
		return xtypes.PortInvalid, fmt.Errorf("evtchn: bind %v->%v:%d: not unbound: %w", local, remoteDom, remotePort, xtypes.ErrInUse)
	}
	if rch.remoteDom != local {
		return xtypes.PortInvalid, fmt.Errorf("evtchn: bind %v->%v:%d: reserved for %v: %w", local, remoteDom, remotePort, rch.remoteDom, xtypes.ErrPerm)
	}
	port, lch := ldp.alloc(t.env)
	lch.state = stateInterdomain
	lch.remoteDom = remoteDom
	lch.remotePort = remotePort
	rch.state = stateInterdomain
	rch.remoteDom = local
	rch.remotePort = port
	return port, nil
}

// BindVIRQ binds a new port in dom to the given virtual IRQ. Only one port
// per (domain, VIRQ) pair may exist, as in Xen.
func (t *Table) BindVIRQ(dom xtypes.DomID, virq xtypes.VIRQ) (xtypes.Port, error) {
	dp, err := t.domain(dom)
	if err != nil {
		return xtypes.PortInvalid, err
	}
	for _, ch := range dp.ports {
		if ch.state == stateVIRQ && ch.virq == virq {
			return xtypes.PortInvalid, fmt.Errorf("evtchn: %v virq %v: %w", dom, virq, xtypes.ErrInUse)
		}
	}
	port, ch := dp.alloc(t.env)
	ch.state = stateVIRQ
	ch.virq = virq
	return port, nil
}

// deliver records one event arrival and dispatches it. The count happens
// here exactly once per arrival — a masked event that is later unmasked is
// still one event, so the redelivery path goes through dispatch directly.
func (t *Table) deliver(ch *channel) {
	ch.notifyCount++
	t.dispatch(ch)
}

// dispatch marks a channel pending and fires its upcall (or defers under
// mask). It does not count: unmask reuses it to redeliver a deferred event.
func (t *Table) dispatch(ch *channel) {
	ch.pending = true
	if ch.masked {
		return
	}
	ch.sig.Broadcast()
	if ch.handler != nil {
		// Handlers run as scheduled callbacks so a notifier never executes
		// receiver code in its own stack frame. The upcall closure was bound
		// at SetHandler time and Post carries no cancel token, so delivering
		// an event allocates nothing.
		t.env.Post(ch.upcall)
	}
}

// Notify signals the remote end of an interdomain channel.
//
//xoarlint:hot
func (t *Table) Notify(dom xtypes.DomID, port xtypes.Port) error {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return err
	}
	if ch.state != stateInterdomain {
		return fmt.Errorf("evtchn: notify %v:%d: not interdomain: %w", dom, port, xtypes.ErrBadPort)
	}
	rch, err := t.lookup(ch.remoteDom, ch.remotePort)
	if err != nil {
		// Peer vanished (mid-microreboot): drop the event, as hardware would.
		return nil
	}
	t.deliver(rch)
	return nil
}

// RaiseVIRQ delivers a virtual IRQ to dom, if it has bound the VIRQ.
// Unbound VIRQs are dropped silently, matching Xen.
//
//xoarlint:hot
func (t *Table) RaiseVIRQ(dom xtypes.DomID, virq xtypes.VIRQ) {
	dp, ok := t.domains[dom]
	if !ok {
		return
	}
	for _, ch := range dp.ports {
		if ch.state == stateVIRQ && ch.virq == virq {
			t.deliver(ch)
			return
		}
	}
}

// SetHandler registers an upcall invoked on delivery. Passing nil removes it.
func (t *Table) SetHandler(dom xtypes.DomID, port xtypes.Port, h func()) error {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return err
	}
	ch.handler = h
	if h != nil && ch.upcall == nil {
		ch.upcall = func() {
			if !ch.pending || ch.masked {
				return
			}
			handler := ch.handler
			if handler == nil {
				return
			}
			ch.pending = false
			//xoarlint:allow(hotpath) handler bodies are charged to the registering driver's own hot roots; the upcall trampoline only invokes them
			handler()
		}
	}
	return nil
}

// mask suppresses upcalls for the port; events arriving while masked leave
// the pending bit set.
func (t *Table) mask(dom xtypes.DomID, port xtypes.Port) error {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return err
	}
	ch.masked = true
	return nil
}

// unmask re-enables delivery; a pending event fires immediately.
func (t *Table) unmask(dom xtypes.DomID, port xtypes.Port) error {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return err
	}
	ch.masked = false
	if ch.pending {
		ch.pending = false
		t.dispatch(ch)
	}
	return nil
}

// pending reports (without clearing) the port's pending bit.
func (t *Table) pending(dom xtypes.DomID, port xtypes.Port) (bool, error) {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return false, err
	}
	return ch.pending, nil
}

// wait blocks the calling process until the port has a pending event, then
// clears the pending bit. It returns false if the port was closed while
// waiting.
func (t *Table) wait(p *sim.Proc, dom xtypes.DomID, port xtypes.Port) bool {
	for {
		ch, err := t.lookup(dom, port)
		if err != nil {
			return false
		}
		if ch.pending {
			ch.pending = false
			return true
		}
		ch.sig.Wait(p)
	}
}

// waitTimeout is wait with a deadline; it returns false on timeout or close.
func (t *Table) waitTimeout(p *sim.Proc, dom xtypes.DomID, port xtypes.Port, d sim.Duration) bool {
	deadline := t.env.Now().Add(d)
	ch0, err := t.lookup(dom, port)
	if err != nil {
		return false
	}
	cancel := t.env.After(d, func() { ch0.sig.Broadcast() })
	defer cancel()
	for {
		ch, err := t.lookup(dom, port)
		if err != nil {
			return false
		}
		if ch.pending {
			ch.pending = false
			return true
		}
		if t.env.Now() >= deadline {
			return false
		}
		ch.sig.Wait(p)
	}
}

// close tears down one endpoint, reverting its peer to unbound-broken.
func (t *Table) close(dom xtypes.DomID, port xtypes.Port) {
	dp, ok := t.domains[dom]
	if !ok {
		return
	}
	ch, ok := dp.ports[port]
	if !ok {
		return
	}
	if ch.state == stateInterdomain {
		if rch, err := t.lookup(ch.remoteDom, ch.remotePort); err == nil {
			rch.state = stateUnbound
			rch.remoteDom = dom
			// Scrub connection state: a stale remotePort or pending bit
			// from the dead connection would surface as a phantom event
			// after the driver rebinds post-microreboot.
			rch.remotePort = xtypes.PortInvalid
			rch.pending = false
			rch.sig.Broadcast() // wake waiters so they observe the break
		}
	}
	ch.state = stateFree
	ch.sig.Broadcast()
	delete(dp.ports, port)
}

// Close tears down a port.
func (t *Table) Close(dom xtypes.DomID, port xtypes.Port) error {
	if _, err := t.lookup(dom, port); err != nil {
		return err
	}
	t.close(dom, port)
	return nil
}

// peer reports the remote endpoint of an interdomain channel.
func (t *Table) peer(dom xtypes.DomID, port xtypes.Port) (xtypes.DomID, xtypes.Port, error) {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return xtypes.DomIDNone, xtypes.PortInvalid, err
	}
	if ch.state != stateInterdomain {
		return xtypes.DomIDNone, xtypes.PortInvalid, fmt.Errorf("evtchn: peer %v:%d: %w", dom, port, xtypes.ErrBadPort)
	}
	return ch.remoteDom, ch.remotePort, nil
}

// connections lists the interdomain peers of dom. The security evaluation
// uses this to build signalling-exposure edges of the component graph.
func (t *Table) connections(dom xtypes.DomID) []xtypes.DomID {
	dp, ok := t.domains[dom]
	if !ok {
		return nil
	}
	seen := make(map[xtypes.DomID]bool)
	var out []xtypes.DomID
	for _, ch := range dp.ports {
		if ch.state == stateInterdomain && !seen[ch.remoteDom] {
			seen[ch.remoteDom] = true
			out = append(out, ch.remoteDom)
		}
	}
	return out
}

// notifyCount reports how many events were ever delivered to the port.
func (t *Table) notifyCount(dom xtypes.DomID, port xtypes.Port) int {
	ch, err := t.lookup(dom, port)
	if err != nil {
		return 0
	}
	return ch.notifyCount
}
