package core

import (
	"fmt"

	"quark/internal/xqgm"
)

// CountPlanWork makes every plan that fires evaluate once more, in a fresh
// context over the same transition tables and database, and adds the
// operators that evaluation ran and the rows they produced to st: the xqgm
// work of the firing's own evaluation, which the engine does not count. The
// second evaluation reads the database too, so reldb's counters mean
// nothing while it is installed.
func (e *Engine) CountPlanWork(st *xqgm.EvalStats) { e.SetPlanShadow(planWork{e, st}) }

type planWork struct {
	e  *Engine
	st *xqgm.EvalStats
}

func (w planWork) VerifyPlan(table, sqlText string, deltas map[string]*xqgm.Transition, _ []xqgm.Tuple) error {
	for _, sig := range w.e.order {
		for _, p := range w.e.groups[sig].plans {
			if p.table != table || p.sql() != sqlText {
				continue
			}
			ctx := xqgm.NewEvalContext(w.e.db, deltas)
			if _, err := ctx.Eval(p.root); err != nil {
				return err
			}
			w.st.OpsEvaluated += ctx.Stats.OpsEvaluated
			w.st.RowsProduced += ctx.Stats.RowsProduced
			return nil
		}
	}
	return fmt.Errorf("no plan on %s renders the SQL that fired", table)
}
