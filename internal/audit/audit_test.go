package audit

import (
	"strings"
	"testing"

	"xoar/internal/sim"
)

func s(sec int) sim.Time { return sim.Time(sec) * sim.Time(sim.Second) }

func TestHashChainVerify(t *testing.T) {
	l := NewLog()
	l.Append(s(1), "create", 1, "netback")
	l.Append(s(2), "link-shard", 1, "dom5")
	l.Append(s(3), "destroy", 5, "done")
	if got := l.Verify(); got != -1 {
		t.Fatalf("fresh log corrupt at %d", got)
	}
	l.tamper(1, "dom6")
	if got := l.Verify(); got != 1 {
		t.Fatalf("tamper detected at %d, want 1", got)
	}
}

func TestDependentsOfWindow(t *testing.T) {
	l := NewLog()
	const shard = 2
	l.Append(s(0), "create", shard, "netback")
	l.Append(s(10), "link-shard", shard, "dom5")
	l.Append(s(20), "link-shard", shard, "dom6")
	l.Append(s(30), "destroy", 5, "gone") // closes dom5's window
	l.Append(s(40), "link-shard", shard, "dom7")

	// Window [32,35]: only dom6 (open) — dom5 closed at 30, dom7 starts at 40.
	got := l.DependentsOf(shard, s(32), s(35))
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("dependents[32,35] = %v", got)
	}
	// Window [0,100]: everyone.
	got = l.DependentsOf(shard, s(0), s(100))
	if len(got) != 3 {
		t.Fatalf("dependents[0,100] = %v", got)
	}
	// Window [25,29]: dom5 and dom6.
	got = l.DependentsOf(shard, s(25), s(29))
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("dependents[25,29] = %v", got)
	}
}

func TestUnlinkClosesWindow(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(10), "unlink-shard", 2, "dom5")
	if got := l.DependentsOf(2, s(11), s(20)); len(got) != 0 {
		t.Fatalf("dependents after unlink = %v", got)
	}
	if got := l.DependentsOf(2, s(5), s(20)); len(got) != 1 {
		t.Fatalf("dependents across unlink = %v", got)
	}
}

func TestShardDestroyClosesAll(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(1), "link-shard", 2, "dom6")
	l.Append(s(5), "destroy", 2, "restart")
	if got := l.DependentsOf(2, s(6), s(10)); len(got) != 0 {
		t.Fatalf("dependents after shard destroy = %v", got)
	}
}

func TestServicedBy(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(0), "link-shard", 3, "dom5")
	l.Append(s(0), "link-shard", 4, "dom6")
	got := l.servicedBy(5)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("servicedBy(5) = %v", got)
	}
}

func TestDotExport(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "link-shard", 2, "dom5")
	l.Append(s(1), "link-shard", 2, "dom5") // duplicate edge collapsed
	dot := l.Dot()
	if strings.Count(dot, "->") != 1 {
		t.Fatalf("dot = %q", dot)
	}
	if !strings.Contains(dot, `"dom2" -> "dom5"`) {
		t.Fatalf("dot = %q", dot)
	}
}

func TestKindCount(t *testing.T) {
	l := NewLog()
	l.Append(s(0), "rollback", 2, "")
	l.Append(s(1), "rollback", 2, "")
	if l.KindCount("rollback") != 2 || l.KindCount("create") != 0 {
		t.Fatal("kind counts wrong")
	}
}
