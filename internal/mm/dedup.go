package mm

import (
	"crypto/sha256"

	"xoar/internal/xtypes"
)

// Same-page sharing: the memory-density mechanism the paper's introduction
// cites (Difference Engine, Satori, VMware's page sharing) as one of the
// interposition features a virtualization platform must keep — and one of
// the reasons NoHype-style hypervisor removal is a non-starter (§2.3.1).
//
// Dedup scans every domain's written pages, groups identical contents, and
// marks duplicates as shared copy-on-write. A later write to a shared page
// breaks the sharing for that page (a CoW fault in the real system). Freed
// frames return to the allocator as reclaimable headroom, reported by
// EffectiveFreeMB.

// DedupStats reports one scan's outcome.
type DedupStats struct {
	// Scanned is the number of written pages examined.
	Scanned int
	// Groups is the number of distinct shared contents.
	Groups int
	// SavedPages is the number of frames reclaimed (duplicates beyond the
	// first copy in each group).
	SavedPages int
}

// Dedup performs one full same-page-sharing scan across all domains.
func (m *Manager) Dedup() DedupStats {
	var st DedupStats
	groups := make(map[[32]byte][]*page)
	for _, dm := range m.domains {
		for _, pg := range dm.pages {
			if len(pg.content) == 0 {
				continue
			}
			st.Scanned++
			h := sha256.Sum256(pg.content)
			groups[h] = append(groups[h], pg)
		}
	}
	for h, pages := range groups {
		if len(pages) < 2 {
			continue
		}
		st.Groups++
		for _, pg := range pages {
			// Re-marking an already-shared page is idempotent; only newly
			// shared duplicates count as savings.
			if pg.sharedKey != h {
				pg.sharedKey = h
			}
		}
		st.SavedPages += len(pages) - 1
	}
	// Recompute global savings from scratch: groups shrink as writes break
	// sharing, and scans may re-merge.
	m.recountSharedSavings()
	return st
}

// recountSharedSavings rebuilds the reclaimed-frame count from live state.
func (m *Manager) recountSharedSavings() {
	counts := make(map[[32]byte]int)
	for _, dm := range m.domains {
		for _, pg := range dm.pages {
			if pg.sharedKey != ([32]byte{}) {
				counts[pg.sharedKey]++
			}
		}
	}
	saved := 0
	for _, n := range counts {
		if n >= 2 {
			saved += n - 1
		}
	}
	m.dedupSavedPages = saved
}

// sharedSavedPages reports frames currently reclaimed by sharing.
func (m *Manager) sharedSavedPages() int { return m.dedupSavedPages }

// EffectiveFreeMB is free memory including frames reclaimed by sharing —
// the headroom dense deployments bank on.
func (m *Manager) EffectiveFreeMB() int {
	return m.FreeMB() + m.dedupSavedPages*xtypes.PageSize/(1<<20)
}

// breakSharing splits a shared page before a write (the CoW fault).
func (m *Manager) breakSharing(pg *page) {
	if pg.sharedKey == ([32]byte{}) {
		return
	}
	pg.sharedKey = [32]byte{}
	m.cowBreaks++
	m.recountSharedSavings()
}
