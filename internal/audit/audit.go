// Package audit implements the secure audit log of §3.2.2: an append-only,
// hash-chained record of platform events — VM creation and destruction,
// shard linkage, microreboots, compromises — stored "off host" (outside any
// domain's reach in the model). Queries over the log answer the forensic
// questions the paper motivates: which guests depended on a compromised
// shard during an exposure window, and which shards serviced a given guest.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Record is one immutable log entry.
type Record struct {
	Seq  int
	Time sim.Time
	Kind string
	Dom  xtypes.DomID
	Arg  string

	// PrevHash/Hash chain the log: tampering with any record breaks
	// verification of every later one.
	PrevHash string
	Hash     string
}

func (r Record) hashInput() string {
	return fmt.Sprintf("%s|%d|%d|%s|%v|%s", r.PrevHash, r.Seq, int64(r.Time), r.Kind, r.Dom, r.Arg)
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// Log is the append-only audit store.
type Log struct {
	records []Record
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append adds a record, extending the hash chain.
func (l *Log) Append(t sim.Time, kind string, dom xtypes.DomID, arg string) {
	prev := ""
	if n := len(l.records); n > 0 {
		prev = l.records[n-1].Hash
	}
	r := Record{Seq: len(l.records), Time: t, Kind: kind, Dom: dom, Arg: arg, PrevHash: prev}
	r.Hash = digest(r.hashInput())
	l.records = append(l.records, r)
}

// Len reports the number of records.
func (l *Log) Len() int { return len(l.records) }

// Records returns a copy of the log contents.
func (l *Log) Records() []Record {
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Verify checks the hash chain, returning the index of the first corrupted
// record, or -1 if intact.
func (l *Log) Verify() int {
	prev := ""
	for i, r := range l.records {
		if r.PrevHash != prev || r.Hash != digest(r.hashInput()) || r.Seq != i {
			return i
		}
		prev = r.Hash
	}
	return -1
}

// tamper overwrites a record's argument, for demonstrating Verify in tests
// and examples. A real off-host log would not expose this.
func (l *Log) tamper(i int, arg string) {
	if i >= 0 && i < len(l.records) {
		l.records[i].Arg = arg
	}
}

// parseDomArg parses the DomID rendered by xtypes.DomID.String ("dom7").
func parseDomArg(arg string) (xtypes.DomID, bool) {
	if !strings.HasPrefix(arg, "dom") {
		return 0, false
	}
	var n uint32
	if _, err := fmt.Sscanf(arg, "dom%d", &n); err != nil {
		return 0, false
	}
	return xtypes.DomID(n), true
}

// interval is a [from, to) dependency window; to < 0 means still open.
type interval struct {
	guest    xtypes.DomID
	from, to sim.Time
}

// linkIntervals reconstructs, for one shard, the windows during which each
// guest was linked to it, from link-shard and destroy events.
func (l *Log) linkIntervals(shard xtypes.DomID) []interval {
	var out []interval
	open := make(map[xtypes.DomID]int) // guest -> index in out
	for _, r := range l.records {
		switch r.Kind {
		case "link-shard":
			if r.Dom != shard {
				continue
			}
			if g, ok := parseDomArg(r.Arg); ok {
				if _, dup := open[g]; !dup {
					open[g] = len(out)
					out = append(out, interval{guest: g, from: r.Time, to: -1})
				}
			}
		case "unlink-shard":
			if r.Dom != shard {
				continue
			}
			if g, ok := parseDomArg(r.Arg); ok {
				if i, live := open[g]; live {
					out[i].to = r.Time
					delete(open, g)
				}
			}
		case "destroy":
			// Destruction of the guest or the shard closes windows.
			if r.Dom == shard {
				for g, i := range open {
					out[i].to = r.Time
					delete(open, g)
				}
			} else if i, live := open[r.Dom]; live {
				out[i].to = r.Time
				delete(open, r.Dom)
			}
		}
	}
	return out
}

// DependentsOf lists guests that were linked to shard at any point within
// [from, to] — the "identify and notify potentially affected customers"
// query of §3.2.2.
func (l *Log) DependentsOf(shard xtypes.DomID, from, to sim.Time) []xtypes.DomID {
	seen := make(map[xtypes.DomID]bool)
	var out []xtypes.DomID
	for _, iv := range l.linkIntervals(shard) {
		end := iv.to
		if end < 0 {
			end = to
		}
		if iv.from <= to && end >= from && !seen[iv.guest] {
			seen[iv.guest] = true
			out = append(out, iv.guest)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// servicedBy lists the shards that ever serviced guest — the "which release
// of which component touched this VM" query used for retroactive
// vulnerability assessment.
func (l *Log) servicedBy(guest xtypes.DomID) []xtypes.DomID {
	seen := make(map[xtypes.DomID]bool)
	var out []xtypes.DomID
	for _, r := range l.records {
		if r.Kind != "link-shard" {
			continue
		}
		if g, ok := parseDomArg(r.Arg); ok && g == guest && !seen[r.Dom] {
			seen[r.Dom] = true
			out = append(out, r.Dom)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dot renders the shard→guest dependency graph in Graphviz format.
func (l *Log) Dot() string {
	var b strings.Builder
	b.WriteString("digraph deps {\n")
	edges := make(map[string]bool)
	for _, r := range l.records {
		if r.Kind != "link-shard" {
			continue
		}
		if g, ok := parseDomArg(r.Arg); ok {
			e := fmt.Sprintf("  \"%v\" -> \"%v\";\n", r.Dom, g)
			if !edges[e] {
				edges[e] = true
				b.WriteString(e)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// KindCount tallies records by kind, for tests and reports.
func (l *Log) KindCount(kind string) int {
	n := 0
	for _, r := range l.records {
		if r.Kind == kind {
			n++
		}
	}
	return n
}
