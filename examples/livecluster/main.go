// Livecluster boots the complete deTector deployment — emulated UDP switch
// fabric, controller, diagnoser, watchdog, and pinger/responder agents on
// every server — then injects a gray failure and prints the alert that the
// real probing pipeline produces. This is the paper's testbed demo (§6.3)
// on loopback sockets.
package main

import (
	"fmt"
	"log"
	"time"

	detector "github.com/detector-net/detector"
	"github.com/detector-net/detector/internal/control"
)

func main() {
	cfg := control.DefaultConfig()
	cfg.RatePPS = 60    // per-pinger probe rate
	cfg.WindowMS = 1000 // 1s aggregation windows (paper: 30s)
	c, err := detector.StartCluster(detector.ClusterOptions{
		K:            4,
		Control:      cfg,
		ProbeTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	fmt.Printf("cluster up: Fattree(4), %d pingers, %d responders, %d probe routes\n",
		len(c.Pingers), len(c.Responders), c.Controller.ProbeMatrix().NumPaths())
	fmt.Printf("services: controller=%s diagnoser=%s watchdog=%s\n",
		c.ControllerURL, c.DiagnoserURL, c.WatchdogURL)

	// Let a clean window pass.
	time.Sleep(1500 * time.Millisecond)
	fmt.Println("baseline window clean; injecting gray failure (silent full loss, invisible to SNMP)...")

	bad := c.F.MustLink(c.F.AggID[1][1], c.F.CoreID[2])
	lk := c.F.Link(bad)
	fmt.Printf("failed link %d: %s <-> %s\n", bad, c.F.Node(lk.A).Name, c.F.Node(lk.B).Name)
	c.InjectFailure(bad, detector.FullLoss{Gray: true})

	alert := c.WaitForAlert([]detector.LinkID{bad}, 15*time.Second)
	if alert == nil {
		log.Fatal("no alert — this should not happen")
	}
	fmt.Printf("ALERT after real UDP probing: %d lossy paths, localized in %.2fms\n",
		alert.LossyPaths, alert.ElapsedMS)
	for _, v := range alert.Bad {
		fmt.Printf("  bad link %d (%s <-> %s), estimated loss %.0f%%\n", v.Link, v.A, v.B, 100*v.Rate)
	}

	fmt.Println("repairing the link...")
	c.Repair(bad)
	time.Sleep(2500 * time.Millisecond)
	quiet := true
	alerts := c.Diagnoser.Alerts()
	if len(alerts) > 0 {
		last := alerts[len(alerts)-1]
		for _, v := range last.Bad {
			if v.Link == bad {
				quiet = false
			}
		}
	}
	fmt.Printf("post-repair windows quiet: %v\n", quiet)
}
