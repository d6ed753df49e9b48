package core

import "sort"

// GroupStat is one trigger group's row in Stats.PerGroup. Counters are
// cumulative since the group was created.
type GroupStat struct {
	Sig      string `json:"sig"`
	Mode     Mode   `json:"mode"`
	ModeName string `json:"mode_name"`
	Members  int    `json:"members"`

	Fires        int64 `json:"fires"`         // plan/body evaluations
	EvalNS       int64 `json:"eval_ns"`       // wall time spent evaluating
	DeltaRows    int64 `json:"delta_rows"`    // transition rows seen
	Activations  int64 `json:"activations"`   // member activations delivered/staged
	RowsReused   int64 `json:"rows_reused"`   // OLD-side rows taken from the NEW side instead of computed
	JoinsSkipped int64 `json:"joins_skipped"` // joins that left their right input unevaluated: the left one was empty
	NodesBuilt   int64 `json:"nodes_built"`   // XML nodes the evaluations constructed
	OpsShared    int64 `json:"ops_shared"`    // operator outputs taken from another group's evaluation
	OpsEvaluated int64 `json:"ops_evaluated"` // operators the evaluations ran
	RowsProduced int64 `json:"rows_produced"` // rows those operators produced
}

// GroupSigs returns all trigger-group signatures, sorted.
func (e *Engine) GroupSigs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := append([]string(nil), e.order...)
	sort.Strings(out)
	return out
}

// GroupStats samples every group's counters. It takes the metadata read
// lock only — never a table lock — so a /metrics scrape or /snapshot does
// not queue behind an open batch.
func (e *Engine) GroupStats() []GroupStat {
	e.mu.RLock()
	defer e.mu.RUnlock()
	stats := make([]GroupStat, 0, len(e.order))
	for _, sig := range e.order {
		g := e.groups[sig]
		stats = append(stats, GroupStat{
			Sig:          sig,
			Mode:         e.mode,
			ModeName:     e.mode.String(),
			Members:      g.members.Len(),
			Fires:        g.stats.fires.Load(),
			EvalNS:       g.stats.evalNS.Load(),
			DeltaRows:    g.stats.deltaRows.Load(),
			Activations:  g.stats.activations.Load(),
			RowsReused:   g.stats.rowsReused.Load(),
			JoinsSkipped: g.stats.joinsSkipped.Load(),
			NodesBuilt:   g.stats.nodesBuilt.Load(),
			OpsShared:    g.stats.opsShared.Load(),
			OpsEvaluated: g.stats.opsEvaluated.Load(),
			RowsProduced: g.stats.rowsProduced.Load(),
		})
	}
	return stats
}
