// Package churn is the membership subsystem of the simulated network:
// it drives node joins, graceful leaves and crashes at runtime, on the
// simulation clock, while continuous queries are live. The paper
// evaluates RJoin on a stable overlay; this package turns the
// simulator into a fault-model testbed by exercising the machinery a
// real DHT deployment depends on — graceful-leave state handover,
// in-flight message bouncing, ownership re-routing, and engine-level
// crash recovery (all implemented in internal/chord, internal/overlay
// and internal/core; this package is the policy layer deciding when
// membership changes happen). The ring's routing pointers are exact
// after every membership call, so there is no maintenance to schedule.
//
// Start draws Bernoulli trials per event class on a fixed cadence,
// matching the configured expected rates; Join, Leave and Crash inject
// one event each. The trials run as background simulation events:
// pending churn never keeps Engine.Run from reaching quiescence, it
// simply happens whenever foreground traffic (or an explicit RunUntil)
// advances the virtual clock.
//
// What a crash costs depends on the engine's replication setting: with
// core.Config.ReplicationFactor < 2 the dead node's keyed state is
// counted as loss, while with factor k >= 2 every crash this manager
// injects promotes the surviving replica instead and loses nothing.
// The manager itself is agnostic — membership policy here, durability
// policy in internal/core/replicate.go — and every engine path it calls
// (JoinNode, LeaveNode, CrashNode) re-forms the replica groups the
// change reached when replication is on.
//
// Background events are also what makes churn safe — and deterministic
// — under the parallel engine: the simulator executes shard-less
// events serially between worker sub-rounds, so every membership
// change (ring surgery, processor attach/detach, state moves, crash
// recovery) runs at a barrier with no handler in flight, and the
// messages it emits — crash-recovery re-submissions, restarted
// placement walks — enter the sharded queues through the same
// deterministic merge as any other send.
package churn

import (
	"fmt"
	"math/rand"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/sim"
	"rjoin/internal/workload"
)

// Config tunes the churn manager. Zero values select defaults.
type Config struct {
	// Rates are expected membership events per 1000 virtual ticks per
	// class (see workload.ChurnConfig). All zero means no spontaneous
	// churn; explicit Join/Leave/Crash calls still work.
	Rates workload.ChurnConfig

	// Interval is the cadence in ticks at which rate mode draws its
	// trials (default 32). Smaller intervals track the configured
	// rates more faithfully; the draw probability per interval is
	// capped at one event per class.
	Interval int64

	// MinNodes is the floor below which leaves and crashes are skipped
	// (default 2). Joins are always allowed.
	MinNodes int

	// Seed drives the manager's private randomness (victim selection,
	// identifier drawing, rate trials). Separate from the simulation
	// seed so enabling churn does not perturb message-delay draws.
	Seed int64
}

// Stats counts what the manager has done.
type Stats struct {
	Joins   int64
	Leaves  int64
	Crashes int64
	// Skipped counts leave/crash draws suppressed by the MinNodes
	// floor (or join draws that found no free identifier).
	Skipped int64
}

// Manager drives membership changes against one engine.
type Manager struct {
	eng *core.Engine
	cfg Config
	rng *rand.Rand

	// Stats is the manager's event accounting; read-only for callers.
	Stats Stats

	started bool
}

// New builds a manager over the engine, applying config defaults.
func New(eng *core.Engine, cfg Config) *Manager {
	if cfg.Interval <= 0 {
		cfg.Interval = 32
	}
	if cfg.MinNodes < 2 {
		cfg.MinNodes = 2
	}
	return &Manager{
		eng: eng,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Start registers the churn trials as periodic background work when
// any rate is configured. Calling Start twice is a no-op. The trials
// run for the life of the simulation.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	if m.cfg.Rates.Enabled() {
		m.eng.Sim().EveryBg(m.cfg.Interval, func(sim.Time) bool {
			m.step()
			return true
		})
	}
}

// step runs one rate-mode trial per event class. The three draws
// happen in a fixed order on the private source, so a seed fixes the
// whole churn history.
func (m *Manager) step() {
	p := func(rate float64) float64 {
		pr := rate * float64(m.cfg.Interval) / 1000
		if pr > 1 {
			pr = 1
		}
		return pr
	}
	if m.rng.Float64() < p(m.cfg.Rates.JoinRate) {
		m.tryJoin()
	}
	if m.rng.Float64() < p(m.cfg.Rates.LeaveRate) {
		if v := m.victim(); v != nil {
			m.Leave(v)
		}
	}
	if m.rng.Float64() < p(m.cfg.Rates.CrashRate) {
		if v := m.victim(); v != nil {
			m.Crash(v)
		}
	}
}

func (m *Manager) tryJoin() {
	if _, err := m.Join(); err != nil {
		m.Stats.Skipped++
	}
}

// victim picks a random alive node, or nil when the ring is at its
// MinNodes floor.
func (m *Manager) victim() *chord.Node {
	nodes := m.eng.Ring().Nodes()
	if len(nodes) <= m.cfg.MinNodes {
		m.Stats.Skipped++
		return nil
	}
	return nodes[m.rng.Intn(len(nodes))]
}

// Join adds one node at a pseudo-random unoccupied identifier and
// hands it the stored state of its new arc.
func (m *Manager) Join() (*chord.Node, error) {
	for attempt := 0; attempt < 64; attempt++ {
		n, err := m.eng.JoinNode(id.ID(m.rng.Uint64()))
		if err == nil {
			m.Stats.Joins++
			return n, nil
		}
	}
	return nil, fmt.Errorf("churn: could not find a free identifier")
}

// Leave removes the node gracefully, draining its state to its
// successor first.
func (m *Manager) Leave(n *chord.Node) error {
	if err := m.eng.LeaveNode(n); err != nil {
		return err
	}
	m.Stats.Leaves++
	return nil
}

// Crash removes the node abruptly; its state is lost and the engine
// re-indexes what it can recover.
func (m *Manager) Crash(n *chord.Node) error {
	if err := m.eng.CrashNode(n); err != nil {
		return err
	}
	m.Stats.Crashes++
	return nil
}
