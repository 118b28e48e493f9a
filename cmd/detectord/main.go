// Command detectord boots the deTector deployment. In front-end mode (the
// default) it runs the emulated UDP switch fabric, controller, diagnoser
// and watchdog services, and pinger/responder agents on every server,
// then injects failures on demand from stdin and prints diagnoser alerts —
// a terminal version of the paper's testbed demo. With -shard-serve the
// same binary is instead one controller shard as a standalone HTTP
// service (internal/shardrpc): a front-end started with -shard-endpoints
// drives a fleet of such processes over the wire, with served output
// bit-identical to the single-process boot.
//
// Usage:
//
//	detectord -k 4 -window 2s                 # everything in one process
//	detectord -k 4 -shards 2 -remote-shards   # shards behind loopback HTTP
//
//	detectord -shard-serve -k 4 -listen 127.0.0.1:7117   # one shard process
//	detectord -shard-serve -k 4 -listen 127.0.0.1:7118   # another
//	detectord -k 4 -shard-endpoints http://127.0.0.1:7117,http://127.0.0.1:7118
//
// Interactive commands on stdin (front-end mode):
//
//	fail <linkID> full|gray|blackhole|rate <p>
//	repair <linkID>
//	links            # list switch links
//	alerts           # dump alerts so far
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/detector-net/detector/internal/cluster"
	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// startPprof serves net/http/pprof on its own listener when -pprof is set:
// the profiling surface never rides on a service port by accident.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, obs.PprofMux()); err != nil {
			fmt.Fprintln(os.Stderr, "detectord: pprof listener:", err)
		}
	}()
	fmt.Printf("pprof: http://%s/debug/pprof/\n", addr)
}

// serveShard runs the binary as one controller shard: a shardrpc service
// over its own materialization of the Fattree(k) candidate matrix.
func serveShard(k int, listen string) error {
	f, err := topo.NewFattree(k)
	if err != nil {
		return err
	}
	ps := route.NewFattreePaths(f)
	srv := shardrpc.NewServer(ps, f.NumLinks())
	fmt.Printf("detectord shard: Fattree(%d) engine up on %s — %d candidate paths, matrix sig %#016x\n",
		k, listen, ps.Len(), srv.MatrixSig())
	fmt.Println("endpoints: GET /v1/ping · POST /v1/construct · POST /v1/localize · GET /metrics · GET /healthz · GET /statusz")
	return srv.ListenAndServe(listen)
}

func main() {
	var (
		k          = flag.Int("k", 4, "Fattree radix")
		window     = flag.Duration("window", 2*time.Second, "the deployment's window: pingers report once per window epoch and the diagnoser closes a window per epoch")
		rate       = flag.Int("rate", 60, "probes per second per pinger")
		shards     = flag.Int("shards", 1, "controller shards (>1 boots the sharded controller plane)")
		remote     = flag.Bool("remote-shards", false, "run the -shards controller shards as loopback HTTP services instead of in-process")
		endpoints  = flag.String("shard-endpoints", "", "comma-separated shard service URLs; the front-end drives this external fleet")
		shardServe = flag.Bool("shard-serve", false, "run as one controller shard service instead of the front-end")
		listen     = flag.String("listen", "127.0.0.1:7117", "shard service listen address (with -shard-serve)")
		partition  = flag.String("partition", string(shard.PartitionExact), "diagnosis plane partition policy: exact (bit-identical merge) or approx (cut server-edge links for real server-level sharding)")
		downLinks  = flag.String("down-links", "", "comma-separated link IDs masked out of service at boot (candidate routes avoid them; bring back with 'churn up')")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (off when empty)")
		verbose    = flag.Bool("v", false, "log at info level instead of warn")
	)
	flag.Parse()
	if *verbose {
		obs.SetLevel(slog.LevelInfo)
	}
	startPprof(*pprofAddr)

	if _, err := shard.ParsePartitionPolicy(*partition); err != nil {
		fmt.Fprintf(os.Stderr, "detectord: -partition %q must be exact or approx\n", *partition)
		os.Exit(2)
	}

	if *shardServe {
		if err := serveShard(*k, *listen); err != nil {
			fmt.Fprintln(os.Stderr, "detectord shard:", err)
			os.Exit(1)
		}
		return
	}

	cfg := control.DefaultConfig()
	cfg.RatePPS = *rate
	cfg.WindowMS = int(*window / time.Millisecond)
	var eps []string
	for _, ep := range strings.Split(*endpoints, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			eps = append(eps, ep)
		}
	}
	for _, ds := range strings.Split(*downLinks, ",") {
		if ds = strings.TrimSpace(ds); ds == "" {
			continue
		}
		id, err := strconv.Atoi(ds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detectord: -down-links: bad link id %q\n", ds)
			os.Exit(2)
		}
		cfg.DownLinks = append(cfg.DownLinks, topo.LinkID(id))
	}
	c, err := cluster.Start(cluster.Options{
		K:              *k,
		Control:        cfg,
		ProbeTimeout:   400 * time.Millisecond,
		Shards:         *shards,
		RemoteShards:   *remote,
		ShardEndpoints: eps,
		Partition:      *partition,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "detectord:", err)
		os.Exit(1)
	}
	defer c.Stop()

	fmt.Printf("detectord: Fattree(%d) up — %d switches, %d servers, %d pingers, %d probe routes\n",
		*k, c.F.Stats().Switches, c.F.Stats().Servers, len(c.Pingers), c.Controller.ProbeMatrix().NumPaths())
	if coord := c.Controller.Coordinator(); coord != nil {
		st := coord.Status()
		fmt.Printf("sharded controller plane: %d shards over %d components, %s partition\n",
			coord.NumShards(), coord.Components(), st.Partition)
		for _, si := range st.Shards {
			fmt.Printf("  shard %d @ %s (%d components)\n", si.ID, si.Addr, len(si.Components))
		}
	}
	fmt.Printf("controller %s | diagnoser %s | watchdog %s\n", c.ControllerURL, c.DiagnoserURL, c.WatchdogURL)
	fmt.Println("observability: GET /metrics (Prometheus text; ?format=json for JSON) · GET /healthz · GET /statusz on every service")
	fmt.Println("commands: fail <link> full|gray|blackhole|rate <p> · repair <link> · churn down|up <link>... · links · alerts · quit")

	// Stream alerts as they appear.
	go func() {
		seen := 0
		for {
			time.Sleep(*window / 2)
			alerts := c.Diagnoser.Alerts()
			for ; seen < len(alerts); seen++ {
				a := alerts[seen]
				if len(a.Bad) == 0 && len(a.Soft) == 0 {
					continue
				}
				fmt.Printf("ALERT %s: %d lossy paths\n", a.Time.Format("15:04:05"), a.LossyPaths)
				for _, v := range a.Bad {
					fmt.Printf("  bad link %d (%s <-> %s), est. loss %.2f%%, verdict %s\n", v.Link, v.A, v.B, 100*v.Rate, v.Verdict)
				}
				for _, v := range a.Soft {
					fmt.Printf("  soft link %d (%s <-> %s), %s at %.2f%%\n", v.Link, v.A, v.B, v.Verdict, 100*v.Rate)
				}
			}
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "links":
			for _, l := range c.F.SwitchLinks() {
				lk := c.F.Link(l)
				fmt.Printf("  %d: %s <-> %s\n", l, c.F.Node(lk.A).Name, c.F.Node(lk.B).Name)
			}
		case "alerts":
			for _, a := range c.Diagnoser.Alerts() {
				fmt.Printf("  %s: %d lossy, bad=%v\n", a.Time.Format("15:04:05"), a.LossyPaths, a.Bad)
			}
		case "churn":
			if len(fields) < 3 || (fields[1] != "down" && fields[1] != "up") {
				fmt.Println("usage: churn down|up <linkID>...")
				continue
			}
			var ids []topo.LinkID
			bad := false
			for _, fs := range fields[2:] {
				id, err := strconv.Atoi(fs)
				if err != nil || id < 0 || id >= c.F.NumLinks() {
					fmt.Println("bad link id", fs)
					bad = true
					break
				}
				ids = append(ids, topo.LinkID(id))
			}
			if bad {
				continue
			}
			var down, up []topo.LinkID
			if fields[1] == "down" {
				down = ids
			} else {
				up = ids
			}
			diff, err := c.Churn(down, up)
			if err != nil {
				fmt.Println("churn:", err)
				continue
			}
			fmt.Printf("churn applied: %d paths deactivated, %d activated, %d components recomputed, cycle version %d\n",
				len(diff.DeactivatedRows), len(diff.ActivatedRows),
				len(diff.Removed)+len(diff.Added), c.Controller.Version())
		case "repair":
			if len(fields) < 2 {
				fmt.Println("usage: repair <linkID>")
				continue
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("bad link id")
				continue
			}
			c.Repair(topo.LinkID(id))
			fmt.Printf("repaired link %d\n", id)
		case "fail":
			if len(fields) < 3 {
				fmt.Println("usage: fail <linkID> full|gray|blackhole|rate <p>")
				continue
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= c.F.NumLinks() {
				fmt.Println("bad link id")
				continue
			}
			var model sim.LossModel
			switch fields[2] {
			case "full":
				model = sim.FullLoss{}
			case "gray":
				model = sim.FullLoss{Gray: true}
			case "blackhole":
				model = sim.DeterministicLoss{Buckets: 0xFFFF0000, Seed: 42}
			case "rate":
				if len(fields) < 4 {
					fmt.Println("usage: fail <linkID> rate <p>")
					continue
				}
				p, err := strconv.ParseFloat(fields[3], 64)
				if err != nil || p <= 0 || p > 1 {
					fmt.Println("bad rate")
					continue
				}
				model = sim.RandomLoss{P: p}
			default:
				fmt.Println("unknown loss model")
				continue
			}
			c.InjectFailure(topo.LinkID(id), model)
			fmt.Printf("injected %s on link %d\n", fields[2], id)
		default:
			fmt.Println("unknown command")
		}
	}
}
