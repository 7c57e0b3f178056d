package analysis

import (
	"go/ast"
	"strings"
)

// syncForbidden are the sync primitives that bypass the simulator's
// scheduler. Sim-driven code must use env.Env.NewMutex/NewCond/NewQueue and
// env.Env.Go, which the simulator implements deterministically.
var syncForbidden = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true,
}

// nogoroutineAllowed reports whether a package may use raw concurrency: the
// env package (hosts the real-runtime implementation) and real-time binaries.
// The simulator itself is not among them: its procs are coroutines, and it
// has neither a go statement nor a sync primitive.
func nogoroutineAllowed(rel string) bool {
	return strings.HasPrefix(rel, "cmd/") ||
		strings.HasPrefix(rel, "examples/") ||
		rel == "internal/env"
}

// NoGoroutine forbids raw `go` statements and sync.{Mutex,RWMutex,WaitGroup,
// Once,Cond,Map} in sim-driven packages. Real goroutines are scheduled by the
// Go runtime, not the simulator, so any state they touch stops being
// deterministic. Real-runtime code paths (e.g. device.RealDisk) carry
// explicit //kvell:lint-ignore suppressions instead of a package allowlist,
// so new raw concurrency in those packages still needs a stated reason.
// Test files are exempt: tests may drive the real runtime.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid raw go statements and sync primitives in sim-driven packages; use the env abstraction",
	Run: func(pass *Pass) {
		if nogoroutineAllowed(pass.Pkg.Rel) {
			return
		}
		for _, f := range pass.Pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(n.Pos(),
						"use env.Env.Go, which the simulator schedules deterministically",
						"raw go statement in a sim-driven package escapes the simulator's scheduler")
				case *ast.SelectorExpr:
					if pass.SelectorPkg(n) == "sync" && syncForbidden[n.Sel.Name] {
						pass.Reportf(n.Pos(),
							"use env.Env.NewMutex/NewCond/NewQueue, which the simulator implements deterministically",
							"sync.%s in a sim-driven package bypasses the simulated scheduler", n.Sel.Name)
					}
				}
				return true
			})
		}
	},
}
