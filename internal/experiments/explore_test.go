package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"agentring"
)

// sweepAt runs ExploreAllStream at the given worker count and checks
// that emit received exactly the returned rows, in order.
func sweepAt(t *testing.T, ctx context.Context, alg agentring.Algorithm, topology string, n, workers int, emit func(ExploreRow)) ([]ExploreRow, error) {
	t.Helper()
	var emitted []ExploreRow
	rows, err := ExploreAllStream(ctx, alg, topology, n, nil, agentring.ExploreOptions{Workers: workers}, func(r ExploreRow) {
		emitted = append(emitted, r)
		if emit != nil {
			emit(r)
		}
	})
	if !reflect.DeepEqual(emitted, rows) {
		t.Fatalf("workers=%d: emitted %d rows that differ from the %d returned", workers, len(emitted), len(rows))
	}
	return rows, err
}

func TestAllPlacementsRotationDedup(t *testing.T) {
	// Binary necklaces of length 4, excluding the empty one: 0001,
	// 0011, 0101, 0111, 1111.
	got := AllPlacements(4)
	if len(got) != 5 {
		t.Fatalf("AllPlacements(4) = %v, want 5 placements", got)
	}
	for _, homes := range got {
		if len(homes) == 0 {
			t.Fatal("empty placement")
		}
	}
	// n=1 has exactly the single-agent placement.
	if got := AllPlacements(1); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("AllPlacements(1) = %v", got)
	}
}

func TestExploreAllNativeSmallRing(t *testing.T) {
	rows, err := ExploreAllStream(context.Background(), agentring.Native, "ring", 5, nil, agentring.ExploreOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllPlacements(5)) {
		t.Fatalf("%d rows for %d placements", len(rows), len(AllPlacements(5)))
	}
	for _, r := range rows {
		if !r.Report.Complete {
			t.Errorf("homes=%v: incomplete exploration", r.Homes)
		}
		if r.Report.Counterexample != nil {
			t.Errorf("homes=%v: counterexample: %s", r.Homes, r.Report.Counterexample.Reason)
		}
	}
	table := FormatExploreRows(rows)
	if !strings.Contains(table, "native(k)") || !strings.Contains(table, "full") {
		t.Errorf("table misses expected columns:\n%s", table)
	}
}

// TestExploreAllSurfacesCounterexample: the pumped 8-ring contains the
// clustered placement {0..4} whose naive-halting run is the Theorem 5
// violation, so the sweep must abort with a counterexample error, after
// emitting the failing placement's row. Placements after the first
// failing one are cancelled and never emitted, so the rows and the
// error are the same at every worker count.
func TestExploreAllSurfacesCounterexample(t *testing.T) {
	var want []ExploreRow
	var wantErr string
	for _, workers := range []int{1, 2, 4} {
		rows, err := sweepAt(t, context.Background(), agentring.NaiveHalting, "ring", 8, workers, nil)
		if err == nil || !strings.Contains(err.Error(), "counterexample") {
			t.Fatalf("workers=%d: err = %v, want a counterexample abort", workers, err)
		}
		if len(rows) == 0 || rows[len(rows)-1].Report.Counterexample == nil {
			t.Fatalf("workers=%d: the last of %d rows is not the counterexample's", workers, len(rows))
		}
		if workers == 1 {
			want, wantErr = rows, err.Error()
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers=%d: %d rows differ from the %d of workers=1", workers, len(rows), len(want))
		}
		if err.Error() != wantErr {
			t.Errorf("workers=%d: err %q, workers=1 %q", workers, err, wantErr)
		}
	}
}

// TestExploreAllCancelReturnsPrefix cancels a two-worker sweep from its
// emit hook: the sweep must return the context's error together with a
// contiguous prefix of the full sweep's rows.
func TestExploreAllCancelReturnsPrefix(t *testing.T) {
	full, err := sweepAt(t, context.Background(), agentring.Native, "ring", 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const cancelAt = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	rows, err := sweepAt(t, ctx, agentring.Native, "ring", 7, 2, func(ExploreRow) {
		if seen++; seen == cancelAt {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) < cancelAt || len(rows) >= len(full) {
		t.Fatalf("%d rows after cancelling at row %d of %d", len(rows), cancelAt, len(full))
	}
	if !reflect.DeepEqual(rows, full[:len(rows)]) {
		t.Fatalf("the %d rows are not a prefix of the full sweep's", len(rows))
	}
}

// TestBiNativeChirality pins why placement sweeps deduplicate up to
// rotation only, never reflection: BiNative elects its selection
// circuit through port 0 (the forward direction), so reflection is NOT
// a symmetry of its schedule space — mirrored biring placements explore
// genuinely different state sets. Both must still verify (the
// correctness claim is reflection-symmetric; the search is not), but if
// the state counts ever become equal, either the chirality was fixed
// (and a reflection-aware enumeration could halve biring sweeps) or the
// search broke.
func TestBiNativeChirality(t *testing.T) {
	topo, err := agentring.ParseTopology("biring", 6)
	if err != nil {
		t.Fatal(err)
	}
	explore := func(homes []int) agentring.ExploreReport {
		t.Helper()
		rep, err := agentring.Explore(context.Background(), agentring.BiNative,
			agentring.Config{Topology: topo, Homes: homes}, agentring.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete || rep.Counterexample != nil {
			t.Fatalf("homes=%v: complete=%v cex=%v", homes, rep.Complete, rep.Counterexample)
		}
		return rep
	}
	// {0,3,5} is the reflection v -> -v mod 6 of {0,1,3}.
	fwd := explore([]int{0, 1, 3})
	mir := explore([]int{0, 3, 5})
	if fwd.States == mir.States {
		t.Errorf("mirrored placements explore identical state counts (%d); BiNative chirality assumption broken", fwd.States)
	}
}

// TestExploreAllBiNativeBiring6 is the bidirectional coverage
// acceptance check: BiNative verifies on every placement of the
// 6-node bidirectional ring (up to rotation), and sweeps exploring 2
// and 4 placements at once return exactly the rows of the one-at-a-time
// sweep, every report field included.
func TestExploreAllBiNativeBiring6(t *testing.T) {
	seq, err := sweepAt(t, context.Background(), agentring.BiNative, "biring", 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(AllPlacements(6)) {
		t.Fatalf("%d rows for %d placements", len(seq), len(AllPlacements(6)))
	}
	for _, r := range seq {
		if !r.Report.Complete {
			t.Errorf("homes=%v: incomplete exploration", r.Homes)
		}
		if r.Report.Counterexample != nil {
			t.Errorf("homes=%v: counterexample: %s", r.Homes, r.Report.Counterexample.Reason)
		}
	}
	for _, workers := range []int{2, 4} {
		par, err := sweepAt(t, context.Background(), agentring.BiNative, "biring", 6, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Errorf("workers=%d: rows differ from the one-at-a-time sweep's", workers)
		}
	}
}
