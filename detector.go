// Package detector is a topology-aware monitoring system for data-center
// networks, reproducing "deTector: a Topology-aware Monitoring System for
// Data Center Networks" (Peng et al., USENIX ATC 2017).
//
// deTector detects and localizes packet loss in near real time from
// end-to-end UDP probes alone. Its two core algorithms are exported here:
//
//   - PMC (probe matrix construction): a greedy selector that picks the
//     minimal set of source-routed probe paths achieving α-coverage (every
//     link probed by at least α paths) and β-identifiability (any ≤ β
//     simultaneous link failures distinguishable from end-to-end loss
//     observations alone), with the paper's three speedups: matrix
//     decomposition, lazy (CELF) score updates and topology-symmetry
//     reduction.
//   - PLL (packet loss localization): a hit-ratio-thresholded greedy that
//     maps one window of per-path loss counters to the smallest set of
//     faulty links, robust to partial packet loss (flow-selective
//     blackholes).
//
// The package also exports the supporting substrates: Fattree/VL2/BCube
// topology builders, candidate path enumeration, a flow-keyed loss
// simulator, the Pingmesh/NetNORAD/SNMP baselines, and the full agent
// stack (controller, pinger, responder, diagnoser, watchdog) that runs
// over an emulated UDP switch fabric.
//
// # Quick start
//
//	f := detector.MustFattree(8)
//	paths := detector.NewFattreePaths(f)
//	res, _ := detector.ConstructProbeMatrix(paths, f.NumLinks(), detector.PMCOptions{
//		Alpha: 3, Beta: 1,
//	})
//	probes := detector.NewProbes(paths, res.Selected, f.NumLinks())
//	// ... collect per-path loss observations, then:
//	verdicts, _ := detector.Localize(probes, obs, detector.DefaultPLLConfig())
//
// See examples/ for runnable end-to-end scenarios, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-versus-measured record.
package detector

import (
	"github.com/detector-net/detector/internal/cluster"
	"github.com/detector-net/detector/internal/eval"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// Topology types.
type (
	// Topology is an undirected graph of switches, servers and links.
	Topology = topo.Topology
	// Fattree is a k-ary Fattree topology.
	Fattree = topo.Fattree
	// VL2 is a VL2(DA, DI, T) Clos topology.
	VL2 = topo.VL2
	// BCube is a BCube(n, k) server-centric topology.
	BCube = topo.BCube
	// NodeID identifies a switch or server.
	NodeID = topo.NodeID
	// LinkID identifies an undirected link.
	LinkID = topo.LinkID
	// Node is a switch or server.
	Node = topo.Node
	// Link is an undirected link.
	Link = topo.Link
)

// Topology constructors.
var (
	// NewFattree builds a k-ary Fattree (k even, >= 4).
	NewFattree = topo.NewFattree
	// MustFattree panics on invalid k.
	MustFattree = topo.MustFattree
	// NewVL2 builds a VL2(DA, DI, T).
	NewVL2 = topo.NewVL2
	// MustVL2 panics on invalid parameters.
	MustVL2 = topo.MustVL2
	// NewBCube builds a BCube(n, k).
	NewBCube = topo.NewBCube
	// MustBCube panics on invalid parameters.
	MustBCube = topo.MustBCube
)

// Routing types.
type (
	// PathSet is an index-addressed candidate probe path collection.
	PathSet = route.PathSet
	// Probes is a materialized probe matrix with a link->paths index.
	Probes = route.Probes
	// Component is an independent subproblem of the routing matrix.
	Component = route.Component
)

// Routing constructors.
var (
	// NewFattreePaths enumerates ordered-ToR-pair x core candidates.
	NewFattreePaths = route.NewFattreePaths
	// NewVL2Paths enumerates VL2 candidates.
	NewVL2Paths = route.NewVL2Paths
	// NewBCubePaths enumerates BCube's k+1 parallel paths per pair.
	NewBCubePaths = route.NewBCubePaths
	// NewProbes materializes selected candidates into a probe matrix.
	NewProbes = route.NewProbes
)

// DecomposeMatrix splits candidates into independent components: the
// matrix's pristine decomposition, stated by the family where it can
// (a Fattree's k/2 components, whose paths are spans) and found by the
// union-find kernel otherwise.
func DecomposeMatrix(ps PathSet, numLinks int) []Component {
	return route.MaterializeCSR(ps).Pristine(numLinks).Comps
}

// PMC — the paper's core contribution (§4).
type (
	// PMCOptions configures probe matrix construction.
	PMCOptions = pmc.Options
	// PMCResult is a constructed probe matrix selection.
	PMCResult = pmc.Result
	// PMCStats reports construction statistics.
	PMCStats = pmc.Stats
	// VerifyResult reports independently verified matrix properties.
	VerifyResult = pmc.VerifyResult
)

var (
	// ConstructProbeMatrix runs the PMC greedy.
	ConstructProbeMatrix = pmc.Construct
	// VerifyProbeMatrix checks coverage and identifiability explicitly.
	VerifyProbeMatrix = pmc.Verify
)

// PLL — loss localization (§5).
type (
	// Observation is one probe path's window counters.
	Observation = pll.Observation
	// PLLConfig tunes localization.
	PLLConfig = pll.Config
	// PLLResult is a localization outcome.
	PLLResult = pll.Result
	// Verdict is one suspected link with its estimated loss rate.
	Verdict = pll.Verdict
	// Localizer is the interface shared by PLL and the baselines.
	Localizer = pll.Localizer
)

var (
	// Localize runs PLL on one window of observations.
	Localize = pll.Localize
	// DefaultPLLConfig returns the paper's thresholds (hit ratio 0.6,
	// noise floor 1e-3).
	DefaultPLLConfig = pll.DefaultConfig
	// NewPLL, NewTomo, NewSCORE and NewOMP construct the localizers
	// compared in §5.3.
	NewPLL   = pll.NewPLL
	NewTomo  = pll.NewTomo
	NewSCORE = pll.NewSCORE
	NewOMP   = pll.NewOMP
)

// Simulation substrate.
type (
	// FlowKey is the 5-tuple-plus-DSCP packet identity.
	FlowKey = sim.FlowKey
	// LossModel decides per-flow drop probability on a failed link.
	LossModel = sim.LossModel
	// FullLoss drops everything on the link.
	FullLoss = sim.FullLoss
	// RandomLoss drops packets independently at a fixed rate.
	RandomLoss = sim.RandomLoss
	// DeterministicLoss is a flow-selective blackhole.
	DeterministicLoss = sim.DeterministicLoss
	// Failure binds a loss model to a link.
	Failure = sim.Failure
	// Scenario is a set of concurrent failures.
	Scenario = sim.Scenario
	// FailureConfig parameterizes random scenario generation.
	FailureConfig = sim.FailureConfig
	// Network simulates probing over a topology with active failures.
	Network = sim.Network
	// ProbeWindowConfig shapes one simulated measurement window.
	ProbeWindowConfig = sim.ProbeWindowConfig
)

var (
	// NewScenario builds a scenario from explicit failures.
	NewScenario = sim.NewScenario
	// GenerateScenario draws a random, measurement-shaped scenario.
	GenerateScenario = sim.Generate
	// DefaultFailureConfig mirrors the paper's evaluation mix.
	DefaultFailureConfig = sim.DefaultFailureConfig
	// NewNetwork wires a topology to a scenario.
	NewNetwork = sim.NewNetwork
	// SimulateWindow runs one window over a probe matrix.
	SimulateWindow = sim.SimulateWindow
)

// Evaluation metrics (§5.3 definitions).
type (
	// Confusion compares predicted and true bad-link sets.
	Confusion = eval.Confusion
)

var (
	// CompareLinks builds a Confusion from predicted and truth.
	CompareLinks = eval.Compare
)

// Live cluster — the full agent deployment over loopback UDP.
type (
	// Cluster is a running deployment (fabric + services + agents).
	Cluster = cluster.Cluster
	// ClusterOptions shapes a cluster boot.
	ClusterOptions = cluster.Options
)

var (
	// StartCluster boots the whole stack on one machine.
	StartCluster = cluster.Start
)
