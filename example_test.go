package xoar_test

import (
	"fmt"
	"log"

	"xoar"
	"xoar/internal/xtypes"
)

// The canonical flow: boot the disaggregated platform, create a guest,
// move data through the split drivers.
func Example() {
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer pl.Shutdown()

	g, err := pl.CreateGuest(xoar.GuestSpec{Name: "web", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		log.Fatal(err)
	}
	res, err := g.Fetch(128<<20, xoar.SinkNull)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched %dMB at %.0f MB/s\n", res.Bytes>>20, res.ThroughputMBps())
	// Output: fetched 128MB at 117 MB/s
}

// Microreboots bound how long a compromised driver domain can live: NetBack
// is restored to its post-boot snapshot every two seconds while traffic runs.
func ExamplePlatform_SetNetBackRestartPolicy() {
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(xoar.GuestSpec{Name: "app", VCPUs: 2, Net: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := pl.SetNetBackRestartPolicy(xoar.RestartPolicy{Interval: 2 * xoar.Second, Fast: true}); err != nil {
		log.Fatal(err)
	}
	if _, err := g.Fetch(512<<20, xoar.SinkNull); err != nil {
		log.Fatal(err)
	}
	st, _ := pl.RestartStats(pl.Boot.NetBacks[0].Dom)
	fmt.Printf("transfer survived %d microreboots, %.0fms downtime each\n",
		st.Restarts, st.TotalDowntime.Seconds()/float64(st.Restarts)*1000)
	// Output: transfer survived 2 microreboots, 140ms downtime each
}

// The audit log answers the paper's forensic question: which guests were
// exposed to a shard during an incident window (§3.2.2).
func ExamplePlatform_DependentsOf() {
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer pl.Shutdown()
	a, _ := pl.CreateGuest(xoar.GuestSpec{Name: "tenantA", Net: true})
	b, _ := pl.CreateGuest(xoar.GuestSpec{Name: "tenantB", Net: true})
	nb := pl.Boot.NetBacks[0].Dom
	exposed := pl.DependentsOf(nb, 0, pl.Now())
	fmt.Printf("guests exposed to a NetBack compromise: %v %v in %v\n",
		a.Dom, b.Dom, exposed)
	fmt.Printf("audit log intact: %v\n", pl.Log.Verify() == -1)
	// Output:
	// guests exposed to a NetBack compromise: dom9 dom10 in [dom9 dom10]
	// audit log intact: true
}

// Containment is computed from live privilege state: the same attack lands
// very differently on the two profiles.
func ExamplePlatform_SecurityReport() {
	for _, profile := range []xoar.Profile{xoar.MonolithicDom0, xoar.XoarShards} {
		pl, err := xoar.New(profile, xoar.Config{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		g, err := pl.CreateGuest(xoar.GuestSpec{Name: "attacker", Net: true, Disk: true})
		if err != nil {
			log.Fatal(err)
		}
		rep := pl.SecurityReport(g.Dom)
		whole := 0
		for _, f := range rep.Findings {
			if f.Outcome.String() == "whole-host" {
				whole++
			}
		}
		fmt.Printf("%v: %d of %d guest-reachable CVEs compromise the whole host\n",
			profile, whole, len(rep.Findings))
		pl.Shutdown()
	}
	// Output:
	// monolithic-dom0: 19 of 23 guest-reachable CVEs compromise the whole host
	// xoar-shards: 1 of 23 guest-reachable CVEs compromise the whole host
}

// Live migration between two hosts on one virtual clock: the guest's
// working set crosses the management link in iterative pre-copy rounds, and
// the destination's toolstack re-wires its devices through its own shards.
func ExampleNewCluster() {
	hosts, err := xoar.NewCluster(xoar.XoarShards, xoar.Config{Seed: 21}, 2)
	if err != nil {
		log.Fatal(err)
	}
	src, dst := hosts[0], hosts[1]
	defer src.Shutdown()

	g, err := src.CreateGuest(xoar.GuestSpec{Name: "roamer", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		log.Fatal(err)
	}
	d, _ := src.HV.Domain(g.Dom)
	for i := 0; i < 50000; i++ {
		d.Mem.Write(xtypes.PFN(i), []byte{byte(i)})
	}
	fmt.Printf("guest %v on source host, %d pages touched\n", g.Dom, d.Mem.TouchedPages())

	res, err := src.MigrateGuest(g, dst)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("migrated in %d pre-copy rounds: %d pages moved, total %.2fs, blackout %.0fms\n",
		st.Rounds, st.PagesCopied, st.TotalTime.Seconds(), st.Downtime.Seconds()*1000)
	fmt.Printf("guest is now %v on the destination host\n", res.Guest.Dom)
	fr, err := res.Guest.Fetch(128<<20, xoar.SinkDisk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-migration I/O through the destination's shards: %.1f MB/s\n", fr.ThroughputMBps())
	fmt.Printf("source audit: destroy records = %d; destination audit: link records = %d\n",
		src.Log.KindCount("destroy"), dst.Log.KindCount("link-shard"))
	// Output:
	// guest dom9 on source host, 50000 pages touched
	// migrated in 3 pre-copy rounds: 53763 pages moved, total 1.91s, blackout 31ms
	// guest is now dom9 on the destination host
	// post-migration I/O through the destination's shards: 94.9 MB/s
	// source audit: destroy records = 2; destination audit: link records = 2
}
