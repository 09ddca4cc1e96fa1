// Package datagen synthesizes enterprise system-monitoring data: multi-
// host background workloads (services, interactive sessions, builds, web
// traffic) with the paper's two APT attack scenarios injected as ground
// truth. Generation is fully deterministic under a seed, so experiments
// and tests are reproducible.
//
// This package substitutes for the paper's production deployment (auditd/
// ETW/DTrace agents on 150 enterprise hosts): the query engines consume
// identical SVO event streams, and the generator reproduces the data
// characteristics the optimizations exploit — heavy skew toward a few
// busy system processes, strong spatial/temporal locality, and attack
// traces that are vanishingly rare relative to background noise.
package datagen

import (
	"math/rand"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// Scenario selects an attack trace to inject.
type Scenario string

// The two APT scenarios of the paper.
const (
	// ScenarioDemoAPT is the five-step attack of the demo (Figure 2):
	// IRC exploit, malware infection, privilege escalation, credential
	// dumping on the domain controller, and database exfiltration.
	ScenarioDemoAPT Scenario = "demo-apt"
	// ScenarioATCCase is the APT case study of the underlying ATC'18
	// paper (Figure 5's workload): phishing delivery, backdoor download,
	// privilege escalation, lateral movement, and document exfiltration.
	ScenarioATCCase Scenario = "atc-case"
)

// Well-known agents and endpoints of the generated enterprise. Agent IDs
// below FirstWorkstation are servers.
const (
	AgentWebServer   = 1 // Linux web/IRC server (demo entry point)
	AgentDBServer    = 2 // Windows SQL database server
	AgentDC          = 3 // Windows domain controller
	AgentFileServer  = 4 // Windows file server (ATC exfil source)
	FirstWorkstation = 5

	// AttackerIP receives exfiltrated data in both scenarios ("XXX.129").
	AttackerIP = "203.0.113.129"
	// ATCAttackerIP is the ATC scenario's command-and-control host.
	ATCAttackerIP = "198.51.100.77"
)

// Attack timing inside the generated day.
const (
	DemoAttackHour = 13 // demo APT runs 13:00–14:00
	ATCAttackHour  = 15 // ATC case runs 15:00–16:00
)

// DefaultStart is the first instant of the generated timeline, matching
// the paper's obfuscated "mm/dd/2018" window.
var DefaultStart = time.Date(2018, 5, 10, 0, 0, 0, 0, time.UTC)

// Config controls generation.
type Config struct {
	Seed      int64
	Hosts     int           // number of agents; servers occupy IDs 1..4
	Events    int           // approximate number of background events
	Start     time.Time     // timeline start (DefaultStart when zero)
	Duration  time.Duration // timeline span (24h when zero)
	Scenarios []Scenario
}

func (c Config) normalized() Config {
	if c.Hosts < 5 {
		c.Hosts = 5
	}
	if c.Events <= 0 {
		c.Events = 100000
	}
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.Duration <= 0 {
		c.Duration = 24 * time.Hour
	}
	return c
}

// Generate produces the full record stream, background plus injected
// scenarios, sorted by start timestamp.
func Generate(cfg Config) []eventstore.Record {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}
	g.buildHosts()
	recs := g.background()
	for _, sc := range cfg.Scenarios {
		switch sc {
		case ScenarioDemoAPT:
			recs = append(recs, g.demoAPT()...)
		case ScenarioATCCase:
			recs = append(recs, g.atcCase()...)
		}
	}
	sortRecords(recs)
	return recs
}

// GenerateInto generates and ingests into a store.
func GenerateInto(s *eventstore.Store, cfg Config) int {
	recs := Generate(cfg)
	s.AppendAll(recs)
	s.Flush()
	return len(recs)
}

// BuildStore generates a dataset into a fully optimized in-memory store.
func BuildStore(cfg Config) *eventstore.Store {
	s := eventstore.New(eventstore.DefaultOptions())
	GenerateInto(s, cfg)
	return s
}

// Fig4Dataset is the demo-apt configuration of the paper's Figure 4
// workload, which the servers also load as their demo dataset.
func Fig4Dataset(events, hosts int, seed int64) Config {
	return Config{
		Seed:      seed,
		Hosts:     hosts,
		Events:    events,
		Scenarios: []Scenario{ScenarioDemoAPT},
	}
}

func sortRecords(recs []eventstore.Record) {
	// insertion-friendly sort by timestamp: use sort.SliceStable for
	// deterministic ordering of equal timestamps
	sortSliceStable(recs, func(i, j int) bool { return recs[i].StartTS < recs[j].StartTS })
}

// sortSliceStable avoids importing sort in several files.
func sortSliceStable(recs []eventstore.Record, less func(i, j int) bool) {
	// simple binary insertion would be O(n^2); delegate to stdlib
	stableSort(recs, less)
}

// hostProfile describes one agent's background behavior.
type hostProfile struct {
	agent    uint32
	os       string // "windows" or "linux"
	role     string // "web", "db", "dc", "file", "workstation"
	procs    []sysmon.Process
	files    []string
	weight   int // relative share of background events
	internal string
}

type generator struct {
	cfg   Config
	rng   *rand.Rand
	hosts []hostProfile
	// shared pools
	externalIPs []string
}

func (g *generator) at(hour, min, sec int) int64 {
	return g.cfg.Start.Add(time.Duration(hour)*time.Hour +
		time.Duration(min)*time.Minute + time.Duration(sec)*time.Second).UnixNano()
}

// rnd returns a deterministic pseudo-random int in [0, n).
func (g *generator) rnd(n int) int { return g.rng.Intn(n) }
