package grant

import (
	"errors"
	"testing"
	"testing/quick"

	"xoar/internal/xtypes"
)

func newTable() *Table {
	t := NewTable()
	t.AddDomain(1)
	t.AddDomain(2)
	t.AddDomain(3)
	return t
}

func TestGrantMapUnmap(t *testing.T) {
	tbl := newTable()
	ref, err := tbl.Grant(1, 2, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tbl.Map(2, 1, ref, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Entry().active != 1 {
		t.Fatalf("active = %d", m.Entry().active)
	}
	m.Unmap()
	m.Unmap() // idempotent
	if m.Entry().active != 0 {
		t.Fatalf("active after unmap = %d", m.Entry().active)
	}
}

func TestMapByNonGranteeDenied(t *testing.T) {
	tbl := newTable()
	ref, _ := tbl.Grant(1, 2, 10, false)
	if _, err := tbl.Map(3, 1, ref, false); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign map: %v", err)
	}
}

func TestReadOnlyGrant(t *testing.T) {
	tbl := newTable()
	ref, _ := tbl.Grant(1, 2, 10, true)
	if _, err := tbl.Map(2, 1, ref, true); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("rw map of ro grant: %v", err)
	}
	if _, err := tbl.Map(2, 1, ref, false); err != nil {
		t.Fatalf("ro map of ro grant: %v", err)
	}
}

func TestEndAccessBlockedWhileMapped(t *testing.T) {
	tbl := newTable()
	ref, _ := tbl.Grant(1, 2, 10, false)
	m, _ := tbl.Map(2, 1, ref, false)
	if err := tbl.EndAccess(1, ref); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("revoke while mapped: %v", err)
	}
	m.Unmap()
	if err := tbl.EndAccess(1, ref); err != nil {
		t.Fatal(err)
	}
	// Revoked references are dead.
	if _, err := tbl.Map(2, 1, ref, false); !errors.Is(err, xtypes.ErrBadGrant) {
		t.Fatalf("map after revoke: %v", err)
	}
	if err := tbl.EndAccess(1, ref); !errors.Is(err, xtypes.ErrBadGrant) {
		t.Fatalf("double revoke: %v", err)
	}
}

func TestBadRefAndBadDomain(t *testing.T) {
	tbl := newTable()
	if _, err := tbl.Map(2, 1, 999, false); !errors.Is(err, xtypes.ErrBadGrant) {
		t.Fatalf("bad ref: %v", err)
	}
	if _, err := tbl.Grant(99, 2, 0, false); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("bad owner: %v", err)
	}
	if _, err := tbl.Map(2, 99, 1, false); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("bad owner domain on map: %v", err)
	}
}

func TestSharingEnumeration(t *testing.T) {
	tbl := newTable()
	tbl.Grant(1, 2, 10, false)
	tbl.Grant(1, 2, 11, false)
	r3, _ := tbl.Grant(1, 3, 12, false)
	if g := tbl.GranteesOf(1); len(g) != 2 {
		t.Fatalf("grantees = %v", g)
	}
	if n := tbl.ActiveEntries(1); n != 3 {
		t.Fatalf("active entries = %d", n)
	}
	tbl.EndAccess(1, r3)
	if g := tbl.GranteesOf(1); len(g) != 1 || g[0] != 2 {
		t.Fatalf("grantees after revoke = %v", g)
	}
}

func TestRemoveDomainDropsTable(t *testing.T) {
	tbl := newTable()
	ref, _ := tbl.Grant(1, 2, 10, false)
	tbl.RemoveDomain(1)
	if _, err := tbl.Map(2, 1, ref, false); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("map after owner removal: %v", err)
	}
}

// Property: active mapping count equals maps minus unmaps for any interleaving,
// and EndAccess succeeds exactly when the count is zero.
func TestMappingCountProperty(t *testing.T) {
	f := func(ops []bool) bool {
		tbl := newTable()
		ref, _ := tbl.Grant(1, 2, 10, false)
		var live []*Mapping
		for _, doMap := range ops {
			if doMap {
				m, err := tbl.Map(2, 1, ref, false)
				if err != nil {
					return false
				}
				live = append(live, m)
			} else if len(live) > 0 {
				live[len(live)-1].Unmap()
				live = live[:len(live)-1]
			}
			err := tbl.EndAccess(1, ref)
			if len(live) > 0 {
				if !errors.Is(err, xtypes.ErrInUse) {
					return false
				}
			} else {
				if err != nil {
					return false
				}
				// Re-grant for the next iteration since EndAccess succeeded.
				ref, _ = tbl.Grant(1, 2, 10, false)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
