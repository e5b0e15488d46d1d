package attack

import (
	"fmt"
	"testing"

	"xoar/internal/xenstore"
)

// TestOrphanedTreeInvariant: a destroyed domain whose /local/domain/<id>
// subtree reappears is reported exactly once, and a clean destroy (the
// platform's XenStore reap) is not reported at all.
func TestOrphanedTreeInvariant(t *testing.T) {
	ha, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer ha.Close()

	kill := Sequence{Persona: PersonaToolstack, Calls: []Call{{Op: OpDestroyDomain, Target: TVictimA}}}
	if res := ha.Run(kill); len(res.Findings) != 0 {
		t.Fatalf("clean destroy of victimA: %v", res.Findings)
	}
	if _, err := ha.H.Domain(ha.VictimA); err == nil {
		t.Fatal("victimA survived its destroy")
	}

	path := fmt.Sprintf("/local/domain/%d", ha.VictimA)
	if err := ha.probe.Mkdir(xenstore.TxNone, path); err != nil {
		t.Fatal(err)
	}
	res := ha.Run(Sequence{Persona: PersonaToolstack})
	if len(res.Findings) != 1 || res.Findings[0].Kind != KindOrphanedTree {
		t.Fatalf("planted %s: findings %v, want exactly one %s", path, res.Findings, KindOrphanedTree)
	}
}
