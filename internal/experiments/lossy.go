package experiments

import (
	"fmt"

	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/metrics"
	"rjoin/internal/overlay"
	"rjoin/internal/sim"
	"rjoin/internal/workload"
)

// lossyRates are the per-transmission drop probabilities FigLossy
// sweeps. Rate 0 runs the fault layer too, so the figure separates what
// the layer charges with nothing lost (acks) from the cost of the
// faults it masks.
var lossyRates = []float64{0, 0.05, 0.10, 0.20}

// FigLossy measures what end-to-end reliable delivery buys on an
// unreliable network and what it costs. One fixed workload — queries up
// front, then a tuple stream with a scheduled partition/heal cycle
// mid-stream — runs once per drop rate, always with duplication and
// delay spikes riding along and ReplicationFactor 2 so the partition's
// dead-owner reroutes land on replicas. A faults-off run is the
// completeness reference. Reported per rate: recall and duplicated
// answers against the reference (the exactly-once guarantee holds both
// at 1.0 and 0), the injected fault counts, and the overhead —
// retransmissions and acks as a share of application transmissions,
// traffic reliable delivery generates but the workload metrics
// deliberately exclude.
func FigLossy(p Params) []*metrics.Table {
	queries := p.scaled(200)
	tuples := p.scaled(600)

	type result struct {
		rate     float64
		nw       *overlay.Network
		comp     metrics.Completeness
		answers  int64
		messages int64
	}
	var results []result
	var reference map[string]map[string]int64 // query ID → row multiset

	for _, rate := range append([]float64{-1}, lossyRates...) {
		cfg := core.DefaultConfig()
		cfg.ReplicationFactor = 2
		netCfg := overlay.DefaultConfig()
		netCfg.Bounce = true
		if rate >= 0 {
			netCfg.Faults = &overlay.Faults{
				DropProb: rate, DupProb: 0.05, SpikeProb: 0.05, SpikeMax: 4,
			}
		}
		wcfg := workload.PaperConfig()
		wcfg.JoinArity = 2
		wcfg.Values = 20
		r := newRunNet(p, cfg, wcfg, netCfg)

		for i := 0; i < queries; i++ {
			if _, err := r.eng.SubmitQuery(r.node(), r.gen.Query()); err != nil {
				panic(err) // generator output is valid by construction
			}
		}
		r.eng.Run()

		if rate >= 0 {
			// One partition/heal cycle across the middle of the stream:
			// the identifier-ordered first quarter of the ring against
			// the rest. The stream below advances 4 ticks per tuple, so
			// the window covers roughly the second quarter of it.
			nodes := r.eng.Ring().Nodes()
			side := make(map[id.ID]bool, len(nodes)/4)
			for _, n := range nodes[:len(nodes)/4] {
				side[n.ID()] = true
			}
			start := r.eng.Sim().Now() + sim.Time(tuples)
			if err := r.eng.Net().AddPartition(overlay.Partition{
				Start: start, End: start + sim.Time(tuples), Side: side,
			}); err != nil {
				panic(err) // window and side are valid by construction
			}
		}
		for i := 0; i < tuples; i++ {
			r.eng.PublishTuple(r.node(), r.gen.Tuple())
			r.eng.RunUntil(r.eng.Sim().Now() + 4)
		}
		r.eng.Run()

		answers := answerMultisets(r.eng)
		if reference == nil {
			reference = answers // the faults-off run comes first
		}
		var delivered int64
		for _, rows := range answers {
			for _, c := range rows {
				delivered += c
			}
		}
		results = append(results, result{
			rate:     rate,
			nw:       r.eng.Net(),
			comp:     compareToReference(reference, answers),
			answers:  delivered,
			messages: r.eng.Net().MessagesSent,
		})
	}

	exact := &metrics.Table{
		Title: "Fig L(a) Exactness under message loss",
		Headers: []string{"drop rate", "recall", "duplicated", "answers",
			"dropped", "dup injected", "abandoned"},
	}
	overhead := &metrics.Table{
		Title: "Fig L(b) Reliable-delivery overhead",
		Headers: []string{"drop rate", "retransmits", "acks", "overhead",
			"app messages"},
	}
	for _, res := range results {
		name := fmt.Sprintf("%.0f%%", 100*res.rate)
		if res.rate < 0 {
			name = "faults off"
		}
		exact.AddRow(name,
			fmt.Sprintf("%.4f", res.comp.Recall()),
			fmt.Sprintf("%d", res.comp.Duplicated),
			fmt.Sprintf("%d", res.answers),
			fmt.Sprintf("%d", res.nw.Dropped),
			fmt.Sprintf("%d", res.nw.Duplicated),
			fmt.Sprintf("%d", res.nw.Abandoned),
		)
		share := 0.0
		if res.messages > 0 {
			share = float64(res.nw.Retransmits+res.nw.AckMessages) / float64(res.messages)
		}
		overhead.AddRow(name,
			fmt.Sprintf("%d", res.nw.Retransmits),
			fmt.Sprintf("%d", res.nw.AckMessages),
			fmt.Sprintf("%.1f%%", 100*share),
			fmt.Sprintf("%d", res.messages),
		)
	}
	return []*metrics.Table{exact, overhead}
}
