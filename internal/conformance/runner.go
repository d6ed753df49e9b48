package conformance

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/relsql"
	"quark/internal/shard"
	"quark/internal/wire"
	"quark/internal/xdm"
)

// errRollback is the sentinel the runner returns from a batch callback to
// request a rollback; Engine.Batch rolls back and propagates it.
var errRollback = fmt.Errorf("conformance: rollback requested")

// RunOpts selects the execution style for RunStyle.
type RunOpts struct {
	// Batched runs each begin..commit block as one transaction whose
	// triggers fire once at commit.
	Batched bool
	// Async delivers actions through the bounded-queue worker pool
	// (8 workers, Block backpressure) with a Drain barrier after every
	// unit, so the log must come out byte-identical to synchronous mode.
	Async bool
	// Replayed routes every delivery through the durable outbox and
	// builds the notification log from the *log itself*: each unit's
	// records are read back from the segment files and decoded through
	// the wire codec — the replayed-sink path an external consumer would
	// take — instead of from the in-process action. The result must still
	// come out byte-identical to the synchronous goldens, proving the
	// codec and the log lose nothing the action contract exposes.
	Replayed bool
	// Shards, when positive, runs the scenario on a sharded engine with
	// that many shards (partitioned per the scenario's [routing] section),
	// every statement routed or distributed by the shard layer. The log
	// must STILL come out byte-identical to the single-engine goldens —
	// the sharding subsystem's observational-equivalence claim.
	Shards int
	// Rebalance forces one routing-group migration before every unit of a
	// sharded run (the first group in sorted order moves one shard over),
	// so every scenario replays with data movement interleaved mid-stream.
	// The log must STILL come out byte-identical to the single-engine
	// goldens: rebalancing is silent data movement, never trigger activity.
	// Ignored on single-engine runs.
	Rebalance bool
	// Backend, when "sqlite", attaches the real-database plan shadow
	// (internal/relsql) to the engine: every translated plan evaluation is
	// replayed as rendered SQL against a mirrored backend database with
	// real INSERTED_/DELETED_ transition tables, and any result divergence
	// fails the run. Single-engine styles only.
	Backend string
	// BackendVerified, when non-nil, receives the number of plan
	// evaluations the backend shadow verified during the run.
	BackendVerified *int64
	// AbortFirst attempts every batched begin..commit block TWICE: first
	// with a prepare-phase failure armed on the engine (every shard of a
	// sharded run) — the attempt must error, deliver nothing, and leave no
	// state behind, which the two-phase protocol guarantees by rolling
	// every participant back — and then for real. The final log must still
	// come out byte-identical to the plain batched goldens: an aborted
	// transaction leaves zero trace, or the retry (and every later unit)
	// would diverge.
	AbortFirst bool
}

// RunStyle executes the scenario's script in the given translation mode
// and style and returns the formatted notification log. Without
// opts.Batched every statement fires its triggers immediately
// (begin/commit are ignored; rollback blocks are skipped entirely,
// matching the batched style's rolled-back net effect of nothing). With
// it each begin..commit block runs as one transaction whose triggers fire
// once at commit.
//
// The log is deterministic: one unit per statement (or per batch block),
// notifications sorted within each unit. Notification lines carry the
// trigger, the view-level event, the evaluated action arguments, and the
// serialized OLD and NEW nodes — everything the paper's action contract
// exposes.
func RunStyle(sc *Scenario, mode core.Mode, opts RunOpts) (string, error) {
	if opts.Shards > 0 {
		if opts.Backend != "" {
			return "", fmt.Errorf("conformance: Backend runs are single-engine only (Shards must be 0)")
		}
		e, err := shard.New(sc.Schema, shard.Config{
			Shards: opts.Shards, Mode: mode, Routing: sc.Routing,
		})
		if err != nil {
			return "", err
		}
		return run(sc, e, opts)
	}
	db, err := reldb.Open(sc.Schema)
	if err != nil {
		return "", err
	}
	e := core.NewEngine(db, mode)
	if opts.Backend != "" {
		if opts.Backend != "sqlite" {
			return "", fmt.Errorf("conformance: unknown backend %q", opts.Backend)
		}
		sh, err := relsql.NewShadow(db)
		if err != nil {
			return "", err
		}
		defer func() {
			if opts.BackendVerified != nil {
				*opts.BackendVerified = sh.Verified()
			}
			_ = sh.Close()
		}()
		e.SetPlanShadow(sh)
	}
	return run(sc, e, opts)
}

// run drives one engine through the scenario; see RunStyle.
func run[T reldb.Writer](sc *Scenario, e core.Surface[T], opts RunOpts) (string, error) {
	for _, dr := range sc.Data {
		if err := e.Insert(dr.Table, dr.Row); err != nil {
			return "", err
		}
	}
	if opts.Async {
		if err := e.EnableAsyncDispatch(dispatch.Config{
			Workers: 8, QueueCap: 1024, Policy: dispatch.Block,
		}); err != nil {
			return "", err
		}
		defer func() { _ = e.Close() }()
	}
	var oblog *outbox.Log
	if opts.Replayed {
		dir, err := os.MkdirTemp("", "conformance-outbox-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		oblog, err = outbox.Open(dir, outbox.Options{})
		if err != nil {
			return "", err
		}
		defer oblog.Close()
		// Blackhole sink: delivery only acknowledges; the log's read-back
		// below is the consumer under test.
		sink := outbox.SinkFunc(func(*wire.Record) error { return nil })
		if err := e.EnableOutbox(oblog, sink); err != nil {
			return "", err
		}
	}

	// unitMu guards unit: in async style notifications append from worker
	// goroutines (the per-unit Drain barrier below makes the log content
	// identical to synchronous mode).
	var unitMu sync.Mutex
	var unit []string
	e.RegisterAction("notify", func(inv core.Invocation) error {
		line := formatNotify(inv.Trigger, inv.Event, inv.Args, inv.Old, inv.New)
		unitMu.Lock()
		unit = append(unit, line)
		unitMu.Unlock()
		return nil
	})
	for _, v := range sc.Views {
		if err := e.CreateView(v.Name, v.Src); err != nil {
			return "", fmt.Errorf("view %s: %w", v.Name, err)
		}
	}
	for _, src := range sc.Triggers {
		if err := e.CreateTrigger(src); err != nil {
			return "", fmt.Errorf("trigger: %w", err)
		}
	}

	var out strings.Builder
	lastSeq := uint64(1) // first log sequence not yet attributed to a unit
	endUnit := func(label string) error {
		e.Drain() // async barrier: attribute every delivery to its unit
		if oblog != nil {
			// Replayed sink: this unit's notifications come from the
			// durable log via the wire codec, not the in-process action.
			recs, err := oblog.Records(lastSeq)
			if err != nil {
				return err
			}
			unitMu.Lock()
			for _, r := range recs {
				unit = append(unit, formatRecord(r))
			}
			unitMu.Unlock()
			lastSeq = oblog.NextSeq()
		}
		unitMu.Lock()
		defer unitMu.Unlock()
		fmt.Fprintf(&out, "-- %s\n", label)
		sort.Strings(unit)
		for _, n := range unit {
			out.WriteString(n)
			out.WriteByte('\n')
		}
		unit = nil
		return nil
	}

	var rebalancer *shard.Engine // Rebalance is ignored on single-engine runs
	if opts.Rebalance {
		rebalancer, _ = any(e).(*shard.Engine)
	}
	i := 0
	for i < len(sc.Script) {
		if rebalancer != nil {
			// One forced migration before every unit: the unit's own log
			// then proves the movement left no observable trace.
			if err := rehearseRebalance(rebalancer); err != nil {
				return "", fmt.Errorf("rebalance rehearsal: %w", err)
			}
		}
		st := sc.Script[i]
		if st.Kind == StDrop {
			if err := e.DropTrigger(st.Trigger); err != nil {
				return "", fmt.Errorf("%s: %w", st.Text, err)
			}
			if err := endUnit(st.Text); err != nil {
				return "", err
			}
			i++
			continue
		}
		if st.Kind != StBegin {
			if err := sc.execStmt(e, st); err != nil {
				return "", fmt.Errorf("%s: %w", st.Text, err)
			}
			if err := endUnit(st.Text); err != nil {
				return "", err
			}
			i++
			continue
		}
		// Collect the block.
		j := i + 1
		var block []Stmt
		for j < len(sc.Script) && sc.Script[j].Kind != StCommit && sc.Script[j].Kind != StRollback {
			if sc.Script[j].Kind == StBegin {
				return "", fmt.Errorf("nested begin is not supported")
			}
			block = append(block, sc.Script[j])
			j++
		}
		if j == len(sc.Script) {
			return "", fmt.Errorf("begin without commit/rollback")
		}
		rollback := sc.Script[j].Kind == StRollback
		label := fmt.Sprintf("begin..%s [%d stmts]", sc.Script[j].Text, len(block))
		switch {
		case !opts.Batched && rollback:
			// Rolled back: net effect is nothing in either style.
		case !opts.Batched:
			for _, bs := range block {
				if err := sc.execStmt(e, bs); err != nil {
					return "", fmt.Errorf("%s: %w", bs.Text, err)
				}
				if err := endUnit(bs.Text); err != nil {
					return "", err
				}
			}
			i = j + 1
			continue
		default:
			runBlock := func() error {
				return e.Batch(func(tx T) error {
					for _, bs := range block {
						if err := sc.execStmt(tx, bs); err != nil {
							return fmt.Errorf("%s: %w", bs.Text, err)
						}
					}
					if rollback {
						return errRollback
					}
					return nil
				})
			}
			if opts.AbortFirst && !rollback {
				// Dress rehearsal: the armed prepare failure must abort the
				// block with nothing delivered and no state applied — the
				// real attempt below (and every later unit) re-proves the
				// no-state-leak half against the goldens.
				injected := fmt.Errorf("conformance: injected prepare failure")
				e.SetPrepareCheck(func([]core.Invocation) error { return injected })
				err := runBlock()
				e.SetPrepareCheck(nil)
				if err == nil {
					return "", fmt.Errorf("%s: armed prepare failure did not abort the block", label)
				}
				e.Drain()
				unitMu.Lock()
				leaked := len(unit)
				unitMu.Unlock()
				if leaked != 0 {
					return "", fmt.Errorf("%s: aborted block delivered %d notifications", label, leaked)
				}
			}
			if err := runBlock(); err != nil && err != errRollback {
				return "", err
			}
		}
		if err := endUnit(label); err != nil {
			return "", err
		}
		i = j + 1
	}
	return out.String(), nil
}

// rehearseRebalance moves the first routing group (sorted order) one
// shard over — a forced silent migration whose invisibility every golden
// comparison then proves.
func rehearseRebalance(e *shard.Engine) error {
	n := e.NumShards()
	groups := e.Groups()
	if n < 2 || len(groups) == 0 {
		return nil
	}
	g := groups[0]
	_, err := e.Rebalance(shard.Plan{Moves: []shard.GroupMove{
		{Table: g.Table, Key: g.Key, To: (g.Shard + 1) % n},
	}})
	return err
}

// formatNotify is the single renderer of a notification line. The
// in-process action and the outbox read-back both go through it, which is
// what makes replayed-sink runs byte-comparable with the goldens.
func formatNotify(trigger string, event reldb.Event, args []xdm.Value, oldNode, newNode *xdm.Node) string {
	strs := make([]string, len(args))
	for i, a := range args {
		strs[i] = a.Lexical()
	}
	return fmt.Sprintf("notify %s %s args=(%s) old=%s new=%s",
		trigger, event, strings.Join(strs, "; "), serialize(oldNode), serialize(newNode))
}

// serialize renders a node of a notification line, "-" for none.
func serialize(n *xdm.Node) string {
	if n == nil {
		return "-"
	}
	return n.Serialize(false)
}

// formatRecord renders a decoded outbox record via formatNotify.
func formatRecord(r *wire.Record) string {
	return formatNotify(r.Trigger, r.Event, r.Args, r.Old, r.New)
}

func (sc *Scenario) execStmt(w reldb.Writer, st Stmt) error {
	switch st.Kind {
	case StInsert:
		return w.Insert(st.Table, reldb.Row(st.Row))
	case StUpdate:
		t, err := sc.table(st.Table)
		if err != nil {
			return err
		}
		type setCol struct {
			ci int
			v  xdm.Value
		}
		var sets []setCol
		for col, v := range st.Sets {
			sets = append(sets, setCol{t.ColIndex(col), v})
		}
		sort.Slice(sets, func(i, j int) bool { return sets[i].ci < sets[j].ci })
		_, err = w.Update(st.Table, sc.pred(st), func(r reldb.Row) reldb.Row {
			for _, s := range sets {
				r[s.ci] = s.v
			}
			return r
		})
		return err
	case StDelete:
		_, err := w.Delete(st.Table, sc.pred(st))
		return err
	default:
		return fmt.Errorf("unexpected statement kind %d", st.Kind)
	}
}

// pred compiles the statement's where clause against the table layout.
func (sc *Scenario) pred(st Stmt) func(reldb.Row) bool {
	if st.WhereAll {
		return func(reldb.Row) bool { return true }
	}
	t, _ := sc.Schema.Table(st.Table)
	ci := t.ColIndex(st.WhereCol)
	return func(r reldb.Row) bool { return xdm.Equal(r[ci], st.WhereVal) }
}
