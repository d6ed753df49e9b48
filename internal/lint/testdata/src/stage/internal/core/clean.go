package core

import "stagefix/internal/reldb"

// staged wraps the delivery in a thunk handed to ctx.Stage: it runs at
// commit, not during prepare, which is exactly the discipline.
func (e *Engine) staged(ctx *reldb.FireContext, payload []byte) error {
	return ctx.Stage(func() error { return e.ob.Append(payload) })
}

// immediate takes the statement-level path only after checking that no
// staging is in progress — the Engine.stage shape.
func (e *Engine) immediate(ctx *reldb.FireContext, payload []byte) error {
	if ctx == nil || ctx.Stage == nil {
		return e.ob.Append(payload)
	}
	return ctx.Stage(func() error { return e.ob.Append(payload) })
}
