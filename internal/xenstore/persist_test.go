package xenstore

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	l := NewLogic(env, NewState())
	c := l.Connect(0, true)
	c.Write(TxNone, "/local/domain/5/name", "guest5")
	c.Write(TxNone, "/local/domain/5/device/vif/0/state", "connected")
	c.Write(TxNone, "/tool/version", "4.1.0")
	c.SetPerms("/local/domain/5/name", Perms{Owner: 5, Read: []xtypes.DomID{7, xtypes.DomIDNone}})

	var buf bytes.Buffer
	if err := l.state.save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := loadState(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Identical dumps.
	a, b := l.state.dump(), restored.dump()
	if len(a) != len(b) {
		t.Fatalf("dump sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Permissions survive: a fresh Logic on the restored state enforces the
	// same ACLs.
	l2 := NewLogic(env, restored)
	g7 := l2.Connect(7, false)
	if _, err := g7.Read(TxNone, "/local/domain/5/name"); err != nil {
		t.Fatalf("ACL read after restore: %v", err)
	}
	g9 := l2.Connect(9, false)
	if err := g9.Write(TxNone, "/local/domain/5/name", "x"); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("write after restore: %v", err)
	}
	owner := l2.Connect(5, false)
	if err := owner.Write(TxNone, "/local/domain/5/name", "renamed"); err != nil {
		t.Fatalf("owner write after restore: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := loadState(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := loadState(strings.NewReader(`{"version":9,"nodes":[]}`)); !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("future version accepted: %v", err)
	}
}

// Property: Save→Load is an identity on the dump for arbitrary small trees.
func TestSaveLoadProperty(t *testing.T) {
	f := func(keys []uint8, vals []uint8) bool {
		env := sim.NewEnv(1)
		l := NewLogic(env, NewState())
		c := l.Connect(0, true)
		for i, k := range keys {
			path := "/k" + string(rune('a'+k%8)) + "/v" + string(rune('a'+k%5))
			v := "x"
			if len(vals) > 0 {
				v = string(rune('0' + vals[i%len(vals)]%10))
			}
			if err := c.Write(TxNone, path, v); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := l.state.save(&buf); err != nil {
			return false
		}
		restored, err := loadState(&buf)
		if err != nil {
			return false
		}
		a, b := l.state.dump(), restored.dump()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPerRequestRestartPolicy(t *testing.T) {
	env := sim.NewEnv(1)
	l := NewLogic(env, NewState())
	l.RestartPerRequest = true
	c := l.Connect(0, true)
	c.Watch("/svc", "tok")
	for i := 0; i < 5; i++ {
		if err := c.Write(TxNone, "/svc/key", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if l.Restarts() != 5 {
		t.Fatalf("restarts = %d, want one per mutation", l.Restarts())
	}
	// Contents and watches survive every restart.
	if v, err := c.Read(TxNone, "/svc/key"); err != nil || v != "v" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if l.state.WatchCount(0) != 1 {
		t.Fatal("watch lost")
	}
	// Rm also triggers a restart.
	if err := c.Rm(TxNone, "/svc/key"); err != nil {
		t.Fatal(err)
	}
	if l.Restarts() != 6 {
		t.Fatalf("restarts after rm = %d", l.Restarts())
	}
}

func TestPerRequestRestartDeferredDuringTransactions(t *testing.T) {
	env := sim.NewEnv(1)
	l := NewLogic(env, NewState())
	l.RestartPerRequest = true
	c := l.Connect(0, true)
	id, err := c.TxStart()
	if err != nil {
		t.Fatal(err)
	}
	// A concurrent non-transactional write must not restart the Logic while
	// the transaction is open — that would abort it spuriously.
	if err := c.Write(TxNone, "/other", "x"); err != nil {
		t.Fatal(err)
	}
	if l.Restarts() != 0 {
		t.Fatal("restarted with a transaction in flight")
	}
	c.Write(id, "/tx/key", "v")
	if err := c.TxEnd(id, true); err != nil {
		t.Fatal(err)
	}
	// The next standalone mutation restarts as usual.
	c.Write(TxNone, "/after", "x")
	if l.Restarts() != 1 {
		t.Fatalf("restarts = %d", l.Restarts())
	}
}
