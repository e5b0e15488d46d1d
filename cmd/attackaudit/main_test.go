package main

import (
	"bytes"
	"strings"
	"testing"

	"xoar"
	"xoar/internal/seceval"
)

// TestSummaryDeterministic requires the containment summary to print the
// same bytes every time, in ascending Outcome order, for both profiles'
// reports and for a tally holding every outcome.
func TestSummaryDeterministic(t *testing.T) {
	reports := map[string]seceval.Report{
		"every-outcome": {ByOutcome: map[seceval.Outcome]int{
			seceval.OutNotApplicable: 1, seceval.OutMitigated: 2, seceval.OutWholeHost: 3,
			seceval.OutSharedClients: 4, seceval.OutContained: 5,
		}},
	}
	for _, profile := range []xoar.Profile{xoar.XoarShards, xoar.MonolithicDom0} {
		pl, err := xoar.New(profile, xoar.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		attacker, err := pl.CreateGuest(xoar.GuestSpec{Name: "attacker", Net: true, Disk: true})
		if err != nil {
			t.Fatal(err)
		}
		reports[profile.String()] = pl.SecurityReport(attacker.Dom)
		pl.Shutdown()
	}
	for name, rep := range reports {
		// Map iteration starts at a random entry, so an unsorted tally
		// is unlikely to print the same order eight times running.
		var first bytes.Buffer
		writeSummary(&first, rep)
		for i := 0; i < 7; i++ {
			var again bytes.Buffer
			writeSummary(&again, rep)
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatalf("%s: summary differs between writes:\n%s\nvs\n%s", name, first.String(), again.String())
			}
		}
		lines := strings.Split(strings.TrimSpace(first.String()), "\n")[1:]
		order := rep.Outcomes()
		if len(lines) != len(order) || len(order) != len(rep.ByOutcome) {
			t.Fatalf("%s: %d tally lines, %d sorted outcomes, %d in the report:\n%s", name, len(lines), len(order), len(rep.ByOutcome), first.String())
		}
		for i, line := range lines {
			if i > 0 && order[i] <= order[i-1] {
				t.Fatalf("%s: outcomes out of order: %v after %v", name, order[i], order[i-1])
			}
			if got := strings.Fields(line)[0]; got != order[i].String() {
				t.Fatalf("%s: tally line %d is %q, want %v:\n%s", name, i, got, order[i], first.String())
			}
		}
	}
}
