package sat

import (
	"context"
	"math/rand"
	"testing"

	"mpmcs4fta/internal/cnf"
)

func TestLitConversion(t *testing.T) {
	tests := []struct {
		dimacs cnf.Lit
		v      int
		neg    bool
	}{
		{1, 0, false},
		{-1, 0, true},
		{5, 4, false},
		{-7, 6, true},
	}
	for _, tt := range tests {
		l := fromDimacs(tt.dimacs)
		if l.variable() != tt.v || l.sign() != tt.neg {
			t.Errorf("fromDimacs(%d) = var %d sign %v", tt.dimacs, l.variable(), l.sign())
		}
		if toDimacs(l) != tt.dimacs {
			t.Errorf("toDimacs(fromDimacs(%d)) = %d", tt.dimacs, toDimacs(l))
		}
		if l.neg().neg() != l {
			t.Errorf("double negation changed literal %d", tt.dimacs)
		}
	}
}

// TestDuplicateAssumptionsExceedNumVars: every already-satisfied
// assumption burns a dummy decision level, so the decision level can
// exceed numVars. computeLBD's levelStamp scratch array must cover
// those levels — this repro used to panic with an index out of range
// when the learnt clause contained a literal from such a level.
func TestDuplicateAssumptionsExceedNumVars(t *testing.T) {
	ctx := context.Background()
	s := New(5)
	s.AddClause(-1, -2, 3)
	s.AddClause(-1, -2, -3)
	status, err := s.Solve(ctx, 1, 1, 1, 1, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if status != Unsat {
		t.Errorf("got %v, want Unsat (assumptions force the conflict)", status)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestSolveTrivial(t *testing.T) {
	ctx := context.Background()

	t.Run("empty instance is sat", func(t *testing.T) {
		s := New(0)
		status, err := s.Solve(ctx)
		if err != nil || status != Sat {
			t.Errorf("got %v, %v", status, err)
		}
	})

	t.Run("unit clauses", func(t *testing.T) {
		s := New(2)
		s.AddClause(1)
		s.AddClause(-2)
		status, err := s.Solve(ctx)
		if err != nil || status != Sat {
			t.Fatalf("got %v, %v", status, err)
		}
		m := s.Model()
		if !m[1] || m[2] {
			t.Errorf("model = %v", m)
		}
	})

	t.Run("contradictory units", func(t *testing.T) {
		s := New(1)
		s.AddClause(1)
		if ok := s.AddClause(-1); ok {
			t.Error("adding contradiction should report false")
		}
		status, err := s.Solve(ctx)
		if err != nil || status != Unsat {
			t.Errorf("got %v, %v", status, err)
		}
	})

	t.Run("empty clause", func(t *testing.T) {
		s := New(1)
		if ok := s.AddClause(); ok {
			t.Error("empty clause should report false")
		}
		status, _ := s.Solve(ctx)
		if status != Unsat {
			t.Errorf("got %v", status)
		}
	})

	t.Run("tautology ignored", func(t *testing.T) {
		s := New(1)
		s.AddClause(1, -1)
		status, _ := s.Solve(ctx)
		if status != Sat {
			t.Errorf("got %v", status)
		}
	})

	t.Run("var growth", func(t *testing.T) {
		s := New(0)
		s.AddClause(10)
		if s.NumVars() != 10 {
			t.Errorf("NumVars = %d", s.NumVars())
		}
		if n := s.AddVars(2); n != 12 {
			t.Errorf("AddVars = %d", n)
		}
	})
}

// pigeonhole encodes PHP(p, h): p pigeons into h holes — unsatisfiable
// when p > h. Variable (i,j) = pigeon i in hole j.
func pigeonhole(s interface{ AddClause(...cnf.Lit) bool }, pigeons, holes int) {
	v := func(i, j int) cnf.Lit { return cnf.Lit(i*holes + j + 1) }
	for i := 0; i < pigeons; i++ {
		clause := make([]cnf.Lit, holes)
		for j := 0; j < holes; j++ {
			clause[j] = v(i, j)
		}
		s.AddClause(clause...)
	}
	for j := 0; j < holes; j++ {
		for i1 := 0; i1 < pigeons; i1++ {
			for i2 := i1 + 1; i2 < pigeons; i2++ {
				s.AddClause(-v(i1, j), -v(i2, j))
			}
		}
	}
}

func TestPigeonhole(t *testing.T) {
	ctx := context.Background()
	t.Run("php 5 into 5 sat", func(t *testing.T) {
		s := New(25)
		pigeonhole(s, 5, 5)
		status, err := s.Solve(ctx)
		if err != nil || status != Sat {
			t.Errorf("got %v, %v", status, err)
		}
	})
	t.Run("php 6 into 5 unsat", func(t *testing.T) {
		s := New(30)
		pigeonhole(s, 6, 5)
		status, err := s.Solve(ctx)
		if err != nil || status != Unsat {
			t.Errorf("got %v, %v", status, err)
		}
		if s.Stats().Conflicts == 0 {
			t.Error("expected a non-trivial search")
		}
	})
}

// randomCNF produces a random k-CNF instance.
func randomCNF(rng *rand.Rand, numVars, numClauses, k int) *cnf.Formula {
	f := &cnf.Formula{NumVars: numVars}
	for i := 0; i < numClauses; i++ {
		clause := make([]cnf.Lit, 0, k)
		for len(clause) < k {
			v := rng.Intn(numVars) + 1
			l := cnf.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause = append(clause, l)
		}
		f.AddClause(clause...)
	}
	return f
}

// bruteForceSat reports satisfiability by enumeration.
func bruteForceSat(f *cnf.Formula) bool {
	n := f.NumVars
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<uint(v-1)) != 0
		}
		if ok, _ := f.Eval(assign); ok {
			return true
		}
	}
	return false
}

func TestRandomAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		numVars := 4 + rng.Intn(9)
		f := randomCNF(rng, numVars, 3+rng.Intn(5*numVars), 3)
		want := bruteForceSat(f)

		s := New(f.NumVars)
		s.AddFormula(f)
		status, err := s.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if (status == Sat) != want {
			t.Fatalf("trial %d: CDCL says %v, brute force says %v", trial, status, want)
		}
		if status == Sat {
			ok, err := f.Eval(s.Model())
			if err != nil || !ok {
				t.Fatalf("trial %d: CDCL model does not satisfy formula (%v)", trial, err)
			}
		}

		d := NewDpll(f.NumVars)
		d.AddFormula(f)
		dstatus, err := d.Solve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if (dstatus == Sat) != want {
			t.Fatalf("trial %d: DPLL says %v, brute force says %v", trial, dstatus, want)
		}
		if dstatus == Sat {
			ok, err := f.Eval(d.Model())
			if err != nil || !ok {
				t.Fatalf("trial %d: DPLL model invalid (%v)", trial, err)
			}
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	ctx := context.Background()
	s := New(3)
	s.AddClause(1, 2)
	status, err := s.Solve(ctx)
	if err != nil || status != Sat {
		t.Fatalf("first solve: %v, %v", status, err)
	}
	// Add clauses between calls (blocking-clause style).
	s.AddClause(-1)
	s.AddClause(-2)
	status, err = s.Solve(ctx)
	if err != nil || status != Unsat {
		t.Fatalf("second solve: %v, %v", status, err)
	}
}

func TestAssumptions(t *testing.T) {
	ctx := context.Background()
	s := New(3)
	s.AddClause(-1, 2) // 1 → 2
	s.AddClause(-2, 3) // 2 → 3

	status, err := s.Solve(ctx, 1, -3)
	if err != nil || status != Unsat {
		t.Fatalf("assume {1, ¬3}: %v, %v", status, err)
	}
	core := s.Core()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("core = %v", core)
	}
	inCore := make(map[cnf.Lit]bool)
	for _, l := range core {
		inCore[l] = true
	}
	for _, l := range core {
		if l != 1 && l != -3 {
			t.Errorf("core literal %v is not an assumption", l)
		}
	}
	// The core must be genuinely unsatisfiable together with the
	// clauses: {1, ¬3} is (nothing smaller is).
	if !(inCore[1] && inCore[-3]) {
		t.Errorf("core %v should contain both assumptions", core)
	}

	// Solving again without assumptions must succeed: the instance
	// itself is satisfiable.
	status, err = s.Solve(ctx)
	if err != nil || status != Sat {
		t.Fatalf("solve without assumptions: %v, %v", status, err)
	}
}

func TestContradictoryAssumptions(t *testing.T) {
	ctx := context.Background()
	s := New(2)
	s.AddClause(1, 2)
	status, err := s.Solve(ctx, 1, -1)
	if err != nil || status != Unsat {
		t.Fatalf("got %v, %v", status, err)
	}
	core := s.Core()
	inCore := make(map[cnf.Lit]bool)
	for _, l := range core {
		inCore[l] = true
	}
	if !inCore[1] || !inCore[-1] {
		t.Errorf("core %v should contain 1 and -1", core)
	}
}

func TestAssumptionsSat(t *testing.T) {
	ctx := context.Background()
	s := New(3)
	s.AddClause(1, 2, 3)
	status, err := s.Solve(ctx, -1, -2)
	if err != nil || status != Sat {
		t.Fatalf("got %v, %v", status, err)
	}
	m := s.Model()
	if m[1] || m[2] || !m[3] {
		t.Errorf("model %v violates assumptions or clause", m)
	}
}

func TestAssumptionCoreRandom(t *testing.T) {
	// Property: whenever Solve(assumps) is Unsat, the returned core is a
	// subset of the assumptions and clauses+core is itself Unsat.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		numVars := 5 + rng.Intn(6)
		f := randomCNF(rng, numVars, 2*numVars, 3)
		var assumps []cnf.Lit
		seen := make(map[int]bool)
		for len(assumps) < 3 {
			v := rng.Intn(numVars) + 1
			if seen[v] {
				continue
			}
			seen[v] = true
			l := cnf.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			assumps = append(assumps, l)
		}

		s := New(f.NumVars)
		s.AddFormula(f)
		status, err := s.Solve(ctx, assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if status != Unsat {
			continue
		}
		core := s.Core()
		isAssump := make(map[cnf.Lit]bool, len(assumps))
		for _, a := range assumps {
			isAssump[a] = true
		}
		for _, l := range core {
			if !isAssump[l] {
				t.Fatalf("trial %d: core literal %v not among assumptions %v", trial, l, assumps)
			}
		}
		// Check clauses + core unit clauses are unsatisfiable.
		check := NewDpll(f.NumVars)
		check.AddFormula(f)
		cstatus, err := check.Solve(ctx, core...)
		if err != nil {
			t.Fatal(err)
		}
		if cstatus != Unsat {
			t.Fatalf("trial %d: core %v is not actually unsatisfiable", trial, core)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(0)
	pigeonhole(s, 9, 8) // hard enough to pass the conflict-check interval
	if _, err := s.Solve(ctx); err == nil {
		t.Error("cancelled solve should return an error")
	}

	d := NewDpll(0)
	pigeonhole(d, 9, 8)
	if _, err := d.Solve(ctx); err == nil {
		t.Error("cancelled DPLL solve should return an error")
	}
}

func TestStatsProgress(t *testing.T) {
	s := New(30)
	pigeonhole(s, 6, 5)
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("Status.String mismatch")
	}
}

func TestDpllAssumptionConflict(t *testing.T) {
	d := NewDpll(2)
	d.AddClause(1, 2)
	status, err := d.Solve(context.Background(), 1, -1)
	if err != nil || status != Unsat {
		t.Errorf("got %v, %v", status, err)
	}
}

func TestDpllEmptyClause(t *testing.T) {
	d := NewDpll(1)
	if d.AddClause() {
		t.Error("empty clause accepted")
	}
	status, _ := d.Solve(context.Background())
	if status != Unsat {
		t.Errorf("got %v", status)
	}
}
