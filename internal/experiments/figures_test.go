package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ishare/internal/opt"
	"ishare/internal/tpch"
)

// microCfg is deliberately tiny: these tests exercise the drivers
// end-to-end, not the paper-scale numbers.
func microCfg() Config {
	return Config{SF: 0.003, Seed: 2, MaxPace: 5, DNFBudget: 10 * time.Second}
}

func TestFigure9Driver(t *testing.T) {
	r, err := Figure9(microCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("constraint sets = %d", len(r.Runs))
	}
	for i, a := range r.Approaches {
		if r.Mean[i] <= 0 || r.Min[i] > r.Max[i] || r.Mean[i] < r.Min[i] || r.Mean[i] > r.Max[i] {
			t.Errorf("%s: mean/min/max = %d/%d/%d", a, r.Mean[i], r.Min[i], r.Max[i])
		}
		// The paper's "Share-Uniform has the largest variance across draws"
		// does not reproduce: Share-Uniform's work is the same in all three
		// draws (EXPERIMENTS.md, Figure 9).
		if a == opt.ShareUniform && r.Min[i] != r.Max[i] {
			t.Errorf("Share-Uniform varies across draws: min %d, max %d", r.Min[i], r.Max[i])
		}
	}
	// iShare is strictly lowest in every constraint draw.
	for set, runs := range r.Runs {
		var ishare int64 = -1
		for _, run := range runs {
			if run.Approach == opt.IShare {
				ishare = run.TotalWork
			}
		}
		for _, run := range runs {
			if run.Approach != opt.IShare && (ishare < 0 || ishare >= run.TotalWork) {
				t.Errorf("draw %d: iShare %d not below %s's %d", set, ishare, run.Approach, run.TotalWork)
			}
			t.Logf("draw %d: %s %d", set, run.Approach, run.TotalWork)
		}
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("report header missing")
	}
}

func TestFigure11And12Drivers(t *testing.T) {
	cfg := microCfg()
	for _, fn := range []func(Config) (*FigUniformResult, error){Figure11, Figure12} {
		r, err := fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Total) != len(UniformRels) {
			t.Fatalf("%s: rows = %d", r.Figure, len(r.Total))
		}
		// iShare (the last approach) is strictly lowest at every constraint.
		for i, row := range r.Total {
			ishare := row[len(row)-1]
			for j, v := range row[:len(row)-1] {
				if ishare >= v {
					t.Errorf("%s rel %.2f: iShare %d not below %s's %d", r.Figure, r.Rels[i], ishare, r.Approaches[j], v)
				}
			}
			t.Logf("%s rel %.2f: %v", r.Figure, r.Rels[i], row)
		}
		// Share-Uniform's cost never falls as constraints tighten (Rels
		// descend). The paper's growth does not show at this scale: its one
		// uniform pace sits at MaxPace 5 from rel 1.0 on, so its total is
		// flat — 14 360 (Fig 11) and 10 126 (Fig 12) — which is pinned
		// (EXPERIMENTS.md, Deviation 5).
		su := slices.Index(r.Approaches, opt.ShareUniform)
		for i := 1; i < len(r.Total); i++ {
			if r.Rels[i] >= r.Rels[i-1] || r.Total[i][su] < r.Total[i-1][su] {
				t.Errorf("%s: Share-Uniform %d at rel %.2f falls to %d at rel %.2f",
					r.Figure, r.Total[i-1][su], r.Rels[i-1], r.Total[i][su], r.Rels[i])
			}
		}
		if first, last := r.Total[0][su], r.Total[len(r.Total)-1][su]; first != last {
			t.Errorf("%s: Share-Uniform grows from %d to %d; Deviation 5 no longer holds", r.Figure, first, last)
		}
		var buf bytes.Buffer
		r.Report(&buf)
		if !strings.Contains(buf.String(), "uniform relative") {
			t.Error("report header missing")
		}
	}
}

func TestTable1Driver(t *testing.T) {
	cfg := microCfg()
	f9, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1 := Table1(f9, f11, f12)
	if len(t1.Random) != len(t1.Approaches) || len(t1.Uniform) != len(t1.Approaches) {
		t.Fatal("stats missing")
	}
	for i := range t1.Approaches {
		if t1.Random[i].MaxRel < t1.Random[i].MeanRel {
			t.Errorf("%s: max below mean", t1.Approaches[i])
		}
	}
	// NoShare-Uniform's worst uniform-constraint miss is exactly 900 %: the
	// miss of a query whose final work does not fall with pace, at goal 0.1.
	// At this scale that query is Q18, not Q15 as EXPERIMENTS.md once said:
	// its final work equals its batch final work at every constraint, so it
	// misses by (1 - rel) / rel in both sweeps, and no other query attains
	// the maximum.
	j := slices.Index(t1.Approaches, opt.NoShareUniform)
	if got := t1.Uniform[j].MaxRel; math.Abs(got-9) > 1e-9 {
		t.Errorf("NoShare-Uniform uniform max miss = %.4f %%, want 900 %%", 100*got)
	}
	for _, fig := range []struct {
		runs  []ApproachResult
		names []string
	}{{f11.Runs, AllQueryNames()}, {f12.Runs, tpch.OverlappingTen}} {
		for _, run := range fig.runs {
			if run.Approach != opt.NoShareUniform {
				continue
			}
			for q, miss := range run.MissRel {
				rel := run.Rel[q]
				switch {
				case fig.names[q] == "Q18" && math.Abs(miss-(1-rel)/rel) > 1e-9:
					t.Errorf("Q18 at rel %.1f misses %.4f %%, want %.4f %%", rel, 100*miss, 100*(1-rel)/rel)
				case fig.names[q] != "Q18" && miss == t1.Uniform[j].MaxRel:
					t.Errorf("%s at rel %.1f also attains the maximum miss", fig.names[q], rel)
				}
			}
		}
	}
	var buf bytes.Buffer
	t1.Report(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("report header missing")
	}
}

func TestFigure13Driver(t *testing.T) {
	r, err := Figure13(microCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Total) != len(r.Approaches) || len(r.Miss) != len(r.Approaches) {
		t.Fatal("series missing")
	}
	var buf bytes.Buffer
	r.Report(&buf)
	r.Table2(&buf)
	text := buf.String()
	if !strings.Contains(text, "Figure 13") || !strings.Contains(text, "Table 2") {
		t.Error("report headers missing")
	}
}

func TestFigure14Driver(t *testing.T) {
	r, err := Figure14(microCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Approaches) != len(Fig14Approaches) {
		t.Fatal("approaches missing")
	}
	// iShare (w/ unshare) never exceeds iShare (w/o unshare): the
	// decomposer only adopts improving rebuilds (in model units; measured
	// totals may differ by noise, so compare the weaker invariant that
	// both ran).
	for i := range r.Total {
		for j := range r.Approaches {
			if r.Total[i][j] <= 0 {
				t.Errorf("rel %.2f %s: total %d", r.Rels[i], r.Approaches[j], r.Total[i][j])
			}
		}
	}
	// iShare (clustering) does not track iShare (Brute-Force) within 1 % at
	// this scale: the totals are equal except at rel 0.2, where the
	// clustering's split costs 141 units (1.2 %) more. The gap is pinned as
	// measured (EXPERIMENTS.md, Figure 14).
	col := func(a opt.Approach) int { return slices.Index(r.Approaches, a) }
	cl, bf := col(opt.IShare), col(opt.IShareBruteForce)
	wantGap := []int64{0, 0, 141, 0}
	for i, rel := range r.Rels {
		if gap := r.Total[i][cl] - r.Total[i][bf]; gap != wantGap[i] {
			t.Errorf("rel %.2f: clustering %d, brute force %d: gap %d, want %d",
				rel, r.Total[i][cl], r.Total[i][bf], gap, wantGap[i])
		}
	}
	var buf bytes.Buffer
	r.Report(&buf)
	r.Table3(&buf)
	text := buf.String()
	if !strings.Contains(text, "Figure 14") || !strings.Contains(text, "Table 3") {
		t.Error("report headers missing")
	}
}

func TestFigure17AllPairs(t *testing.T) {
	for _, p := range Fig17Pairs {
		r, err := Figure17(microCfg(), p.Label)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		if r.Names[0] != p.First || r.Names[1] != p.Second {
			t.Errorf("%s: names = %v", p.Label, r.Names)
		}
	}
}

func TestDefaultApproachesMatchPaper(t *testing.T) {
	want := []opt.Approach{
		opt.NoShareUniform, opt.NoShareNonuniform, opt.ShareUniform, opt.IShare,
	}
	if len(DefaultApproaches) != len(want) {
		t.Fatal("approach set changed")
	}
	for i := range want {
		if DefaultApproaches[i] != want[i] {
			t.Errorf("approach %d = %v, want %v", i, DefaultApproaches[i], want[i])
		}
	}
}

func TestModelAccuracy(t *testing.T) {
	r, err := ModelAccuracy(microCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 22 || len(r.Ratio) != 22 {
		t.Fatalf("entries = %d", len(r.Names))
	}
	for i, ratio := range r.Ratio {
		if ratio <= 0 {
			t.Errorf("%s: non-positive ratio %v", r.Names[i], ratio)
		}
	}
	// The optimizer's decisions are only as good as the model. The worst
	// per-query deviation measures 1.68x here (Q19's); 2x leaves that
	// about a fifth of headroom.
	if worst := r.WorstRatio(); worst > 2 {
		t.Errorf("worst model deviation %.2fx exceeds 2x", worst)
	}
	var buf bytes.Buffer
	r.Report(&buf)
	if !strings.Contains(buf.String(), "worst deviation") {
		t.Error("report footer missing")
	}
}

// TestFigure10Shape asserts Figure 10's claim at the micro scale: shared batch
// execution of the 22 queries costs clearly less than running them
// independently, and not implausibly less.
func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(microCfg())
	if err != nil {
		t.Fatal(err)
	}
	if red := r.Reduction(); red < 0.25 || red > 0.55 {
		t.Errorf("shared %d vs independent %d: reduction %.3f outside [0.25, 0.55]", r.SharedTotal, r.IndependentTotal, red)
	}
}
