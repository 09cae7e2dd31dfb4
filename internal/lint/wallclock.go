package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallClock bans ambient time and ambient randomness. In the
// deterministic packages every reference to a wall-clock reader
// (time.Now, time.Since, timers) or to the global math/rand source
// (rand.Intn and friends, which share process-wide state seeded by the
// runtime) is an error: time must arrive as a value or injected clock
// function, randomness as an explicitly seeded *rand.Rand.
//
// The serve and cmd layers legitimately measure wall-clock durations
// (recovery time, restream duration, benchmark timing) and back off in
// spin-waits; those sites live in a curated allowlist keyed by
// function, so any *new* wall-clock read outside the list is still
// flagged. Methods on an injected *rand.Rand and deterministic
// constructors (rand.New, rand.NewSource, rand.NewZipf, time.Unix,
// time.Date, duration arithmetic) are always fine.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "bans time.Now/timers and the global math/rand source outside injected " +
		"clocks and seeded *rand.Rand values",
	Run: runWallClock,
}

// bannedTimeFuncs reads or depends on the process wall clock /
// monotonic clock. Everything else in package time (Duration maths,
// Unix, Date, Parse) is a pure value computation.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level functions that do
// not touch the shared global source.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// wallClockAllowlist holds the curated (package, function) pairs that
// may read the wall clock, with the reason each is sound: none of them
// feeds partitioning decisions, only operator-facing measurements.
// Key: import path -> function name (methods as "Type.Method").
var wallClockAllowlist = map[string]map[string]string{
	"loom/internal/serve": {
		// The I/O shell only: the deterministic core (serve/state) is in
		// DeterministicPackages and gets no allowlist at all. Recovery and
		// restream durations are reported in Stats for operators;
		// placements never read them.
		"Open":                  "measures recover_ms for Stats.Persist",
		"Server.launchRestream": "stamps restream start for DurationMS",
		"Server.adopt":          "measures restream DurationMS for Stats",
		"Server.quiesce":        "spin-wait backoff while shutdown quiesces senders; no state derived from time",
		"defaultAdmissionNow":   "token-bucket refill clock; injectable via AdmissionConfig.Now, placements never read it",
		"defaultReanchorTimer":  "self-healing retry timer; injectable via ReanchorPolicy.Timer, placements never read it",
	},
	"loom/internal/experiments": {
		// The experiment harness reports elapsed wall time next to the
		// (seed-deterministic) quality numbers.
		"Runner.E1": "reports partitioner elapsed time (paper Table 1)",
		"Runner.E4": "reports one-pass vs multilevel elapsed time",
	},
	"loom/cmd/loom-bench": {
		"main":     "prints each experiment's elapsed wall time next to its table",
		"runChaos": "reports wall time of the chaos sweep; schedules themselves are seed-deterministic",
	},
	"loom/examples/recommender": {
		"main": "demo prints its own runtime",
	},
}

// wallClockStrict reports whether pkg gets no allowlist at all.
func wallClockStrict(path string) bool { return DeterministicPackages[path] }

func runWallClock(pass *Pass) {
	path := pass.Pkg.Path()
	strict := wallClockStrict(path)
	allow := wallClockAllowlist[path]
	if !strict && allow == nil && !strings.HasPrefix(path, "loom/") && path != "loom" {
		return
	}

	for _, f := range pass.Files {
		var fnStack []string
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fnStack = append(fnStack, funcKey(n))
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				fnStack = fnStack[:len(fnStack)-1]
				return false
			case *ast.SelectorExpr:
				checkWallClockRef(pass, n, strict, allow, fnStack)
			}
			return true
		}
		ast.Inspect(f, visit)
	}
}

// funcKey renders a FuncDecl as its allowlist key: "Name" for plain
// functions, "Type.Method" for methods (pointer receivers included).
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + fn.Name.Name
		default:
			return fn.Name.Name
		}
	}
}

func checkWallClockRef(pass *Pass, sel *ast.SelectorExpr, strict bool, allow map[string]string, fnStack []string) {
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on an injected *rand.Rand or time.Time) are fine
	}
	var what string
	switch fn.Pkg().Path() {
	case "time":
		if !bannedTimeFuncs[fn.Name()] {
			return
		}
		what = "wall clock"
	case "math/rand", "math/rand/v2":
		if allowedRandFuncs[fn.Name()] {
			return
		}
		what = "global math/rand source"
	default:
		return
	}
	if !strict {
		for _, key := range fnStack {
			if _, ok := allow[key]; ok {
				return
			}
		}
		pass.Reportf(sel.Pos(), "%s.%s reads the %s outside the curated allowlist: "+
			"inject a clock/seeded *rand.Rand, or add this function to wallClockAllowlist with a reason",
			fn.Pkg().Name(), fn.Name(), what)
		return
	}
	pass.Reportf(sel.Pos(), "%s.%s reads the %s in deterministic package %s: "+
		"inject a clock function or a seeded *rand.Rand instead",
		fn.Pkg().Name(), fn.Name(), what, pass.Pkg.Path())
}
