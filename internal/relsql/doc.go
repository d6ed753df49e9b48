// Package relsql is the real-database backend: it presents the reldb store
// through database/sql and replays the RenderSQL output of every compiled
// trigger plan against real INSERTED_/DELETED_ delta tables, verifying the
// SQL results against the in-memory evaluator row for row (the paper's
// translated triggers are plain SQL — this backend proves the rendered text
// actually executes and agrees).
//
// The backend drives the registered "sqlshim" database/sql driver
// (internal/sqlshim), an embedded SQLite-dialect engine, so no cgo or
// external module is required.
package relsql
