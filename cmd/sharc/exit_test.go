package main

import "testing"

// TestExitFor pins the one outcome table run, explore, and vet share: run
// propagates the program's exit byte, the analysis subcommands map
// findings to 0/1.
func TestExitFor(t *testing.T) {
	cases := []struct {
		name        string
		cmd         string
		programExit int64
		findings    int
		want        int
	}{
		{"run zero", "run", 0, 0, 0},
		{"run value", "run", 7, 0, 7},
		{"run masked", "run", 256 + 3, 0, 3},
		{"run negative masked", "run", -1, 0, 255},
		{"run ignores findings", "run", 0, 5, 0},
		{"explore clean", "explore", 0, 0, 0},
		{"explore findings", "explore", 0, 2, 1},
		{"explore ignores exit", "explore", 9, 0, 0},
		{"vet clean", "vet", 0, 0, 0},
		{"vet musts", "vet", 0, 1, 1},
		{"vet ignores exit", "vet", 9, 0, 0},
	}
	for _, tc := range cases {
		if got := exitFor(tc.cmd, tc.programExit, tc.findings); got != tc.want {
			t.Errorf("%s: exitFor(%q, %d, %d) = %d, want %d",
				tc.name, tc.cmd, tc.programExit, tc.findings, got, tc.want)
		}
	}
}

// TestValidateTable exercises the shared rule table directly: every rule's
// exit code, that rules fire only for their subcommands, and that the
// first violation wins (conflicts before bad values, as the table orders
// them).
func TestValidateTable(t *testing.T) {
	ok := func() cliFlags {
		return cliFlags{
			schedules: 100, strategy: "mix", workers: 1,
			top: 10, seed: 1, traceCap: 1024, engine: "auto",
			addr: "127.0.0.1:7077", maxSessions: 4, queue: 64,
			timeoutMS: 10000, cacheCap: 128, drainMS: 10000,
			obs: true, captureMax: 32, logLevel: "info",
		}
	}
	cases := []struct {
		name string
		cmd  string
		mut  func(*cliFlags)
		code int
	}{
		{"run defaults valid", "run", func(f *cliFlags) { f.seed = -1 }, 0},
		{"explore defaults valid", "explore", func(f *cliFlags) {}, 0},
		{"profile defaults valid", "profile", func(f *cliFlags) { f.seed = 0 }, 0},
		{"vet defaults valid", "vet", func(f *cliFlags) { *f = cliFlags{} }, 0},
		{"vet explain valid", "vet", func(f *cliFlags) { f.explain = "prog.shc:12:7" }, 0},
		{"vet explain colons in file", "vet", func(f *cliFlags) { f.explain = "a:b.shc:3:1" }, 0},
		{"vet explain+json conflict", "vet", func(f *cliFlags) { f.explain = "prog.shc:12:7"; f.jsonOut = "out.json" }, exitConflict},
		{"vet explain missing col", "vet", func(f *cliFlags) { f.explain = "prog.shc:12" }, exitBadValue},
		{"vet explain bare file", "vet", func(f *cliFlags) { f.explain = "prog.shc" }, exitBadValue},
		{"vet explain non-numeric", "vet", func(f *cliFlags) { f.explain = "prog.shc:a:b" }, exitBadValue},
		{"vet explain zero line", "vet", func(f *cliFlags) { f.explain = "prog.shc:0:7" }, exitBadValue},
		{"vet conflict wins over bad value", "vet", func(f *cliFlags) { f.explain = "prog.shc:0"; f.jsonOut = "o.json" }, exitConflict},
		{"explain rule is vet-only", "run", func(f *cliFlags) { f.seed = -1; f.explain = "nonsense" }, 0},
		{"record+replay", "run", func(f *cliFlags) { f.seed = -1; f.record = "a"; f.replay = "b" }, exitConflict},
		{"replay+seed", "run", func(f *cliFlags) { f.replay = "a" }, exitConflict},
		{"unchecked+record", "run", func(f *cliFlags) { f.seed = -1; f.unchecked = true; f.record = "a" }, exitConflict},
		{"unchecked+metrics", "run", func(f *cliFlags) { f.seed = -1; f.unchecked = true; f.metrics = true }, exitConflict},
		{"unchecked+discharge", "run", func(f *cliFlags) { f.seed = -1; f.unchecked = true; f.discharge = true }, exitConflict},
		{"run seed below -1", "run", func(f *cliFlags) { f.seed = -2 }, exitBadValue},
		{"explore negative seed", "explore", func(f *cliFlags) { f.seed = -1 }, exitBadValue},
		{"profile negative seed", "profile", func(f *cliFlags) { f.seed = -1 }, exitBadValue},
		{"run allows seed -1", "run", func(f *cliFlags) { f.seed = -1 }, 0},
		{"zero schedules", "explore", func(f *cliFlags) { f.schedules = 0 }, exitBadValue},
		{"schedules rule is explore-only", "run", func(f *cliFlags) { f.seed = -1; f.schedules = 0 }, 0},
		{"bad strategy", "explore", func(f *cliFlags) { f.strategy = "dfs" }, exitBadValue},
		{"zero workers", "explore", func(f *cliFlags) { f.workers = 0 }, exitBadValue},
		{"negative workers", "explore", func(f *cliFlags) { f.workers = -4 }, exitBadValue},
		{"many workers valid", "explore", func(f *cliFlags) { f.workers = 64 }, 0},
		{"workers rule is explore-only", "run", func(f *cliFlags) { f.seed = -1; f.workers = 0 }, 0},
		{"zero top", "profile", func(f *cliFlags) { f.seed = 0; f.top = 0 }, exitBadValue},
		{"top rule is profile-only", "explore", func(f *cliFlags) { f.top = 0 }, 0},
		{"zero trace cap run", "run", func(f *cliFlags) { f.seed = -1; f.traceCap = 0 }, exitBadValue},
		{"zero trace cap explore", "explore", func(f *cliFlags) { f.traceCap = 0 }, exitBadValue},
		{"zero trace cap profile", "profile", func(f *cliFlags) { f.seed = 0; f.traceCap = 0 }, exitBadValue},
		{"bad engine", "run", func(f *cliFlags) { f.seed = -1; f.engine = "jit" }, exitBadValue},
		{"conflict wins over bad value", "run", func(f *cliFlags) {
			f.seed = -1
			f.record, f.replay = "a", "b" // conflict…
			f.engine = "jit"              // …and a bad value: table order says 3
		}, exitConflict},
		{"serve defaults valid", "serve", func(f *cliFlags) {}, 0},
		{"serve ephemeral port valid", "serve", func(f *cliFlags) { f.addr = "127.0.0.1:0" }, 0},
		{"serve all-interfaces valid", "serve", func(f *cliFlags) { f.addr = ":7077" }, 0},
		{"serve bad addr", "serve", func(f *cliFlags) { f.addr = "localhost" }, exitBadValue},
		{"serve bad port", "serve", func(f *cliFlags) { f.addr = "127.0.0.1:http" }, exitBadValue},
		{"serve port out of range", "serve", func(f *cliFlags) { f.addr = "127.0.0.1:99999" }, exitBadValue},
		{"serve zero sessions", "serve", func(f *cliFlags) { f.maxSessions = 0 }, exitBadValue},
		{"serve negative sessions", "serve", func(f *cliFlags) { f.maxSessions = -2 }, exitBadValue},
		{"serve negative queue", "serve", func(f *cliFlags) { f.queue = -1 }, exitBadValue},
		{"serve empty queue valid", "serve", func(f *cliFlags) { f.queue = 0 }, 0},
		{"serve zero timeout", "serve", func(f *cliFlags) { f.timeoutMS = 0 }, exitBadValue},
		{"serve negative cache cap", "serve", func(f *cliFlags) { f.cacheCap = -1 }, exitBadValue},
		{"serve cache disabled valid", "serve", func(f *cliFlags) { f.cacheCap = 0 }, 0},
		{"serve zero drain", "serve", func(f *cliFlags) { f.drainMS = 0 }, exitBadValue},
		{"serve preload+nocache conflict", "serve", func(f *cliFlags) { f.preload = 2; f.cacheCap = 0 }, exitConflict},
		{"serve preload with cache valid", "serve", func(f *cliFlags) { f.preload = 2 }, 0},
		{"serve obs off valid", "serve", func(f *cliFlags) { f.obs = false }, 0},
		{"serve slow-ms with capture valid", "serve", func(f *cliFlags) { f.slowMS = 50; f.captureDir = "caps" }, 0},
		{"serve quantile with capture valid", "serve", func(f *cliFlags) { f.slowQuantile = 0.99; f.captureDir = "caps" }, 0},
		{"serve access log valid", "serve", func(f *cliFlags) { f.accessLog = "-" }, 0},
		{"serve drain grace valid", "serve", func(f *cliFlags) { f.drainGraceMS = 1500 }, 0},
		{"serve obs-off+slow-ms conflict", "serve", func(f *cliFlags) { f.obs = false; f.slowMS = 50; f.captureDir = "caps" }, exitConflict},
		{"serve obs-off+access-log conflict", "serve", func(f *cliFlags) { f.obs = false; f.accessLog = "-" }, exitConflict},
		{"serve slow-ms without capture-dir", "serve", func(f *cliFlags) { f.slowMS = 50 }, exitConflict},
		{"serve capture-dir without threshold", "serve", func(f *cliFlags) { f.captureDir = "caps" }, exitConflict},
		{"serve negative slow-ms", "serve", func(f *cliFlags) { f.slowMS = -1; f.captureDir = "caps" }, exitBadValue},
		{"serve quantile out of range", "serve", func(f *cliFlags) { f.slowQuantile = 1.5; f.captureDir = "caps" }, exitBadValue},
		{"serve zero capture-max", "serve", func(f *cliFlags) { f.slowMS = 50; f.captureDir = "caps"; f.captureMax = 0 }, exitBadValue},
		{"serve bad log level", "serve", func(f *cliFlags) { f.logLevel = "chatty" }, exitBadValue},
		{"serve negative drain grace", "serve", func(f *cliFlags) { f.drainGraceMS = -1 }, exitBadValue},
		{"serve conflict wins over bad value", "serve", func(f *cliFlags) {
			f.preload, f.cacheCap = 1, 0 // conflict…
			f.maxSessions = 0            // …and a bad value: table order says 3
		}, exitConflict},
		{"serve rules are serve-only", "run", func(f *cliFlags) { f.seed = -1; f.maxSessions = -5; f.addr = "nonsense" }, 0},
	}
	for _, tc := range cases {
		f := ok()
		tc.mut(&f)
		code, msg := validate(tc.cmd, &f)
		if code != tc.code {
			t.Errorf("%s: validate(%q) = %d (%q), want %d", tc.name, tc.cmd, code, msg, tc.code)
		}
		if code != 0 && msg == "" {
			t.Errorf("%s: non-zero code with empty message", tc.name)
		}
	}
}
