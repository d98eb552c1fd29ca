package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro"
)

func testDetector(t *testing.T) *repro.Detector {
	t.Helper()
	det, err := repro.NewDetector(repro.Config{
		Tau: 2, TauPrime: 2,
		Builder:   repro.NewHistogramBuilder(-10, 10, 10),
		Bootstrap: repro.BootstrapConfig{Replicates: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestReadJSONL(t *testing.T) {
	input := `[[1],[2],[3]]
[[1.5],[2.5]]

[[0],[1],[2]]
[[5],[6]]
`
	var points []*repro.Point
	err := readJSONL(strings.NewReader(input), testDetector(t), func(p *repro.Point) {
		if p != nil {
			points = append(points, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 bags, window 4 → exactly one inspection point at t=2.
	if len(points) != 1 || points[0].T != 2 {
		t.Fatalf("points = %+v", points)
	}
}

// TestReadJSONLBadLine: a malformed line fails the run with exit 2 and
// one error line that carries the "bagcpd: " prefix once.
func TestReadJSONLBadLine(t *testing.T) {
	err := readJSONL(strings.NewReader("not json\n"), testDetector(t), func(*repro.Point) {})
	if err == nil {
		t.Fatal("expected parse error")
	}
	cmd := exec.Command(os.Args[0], "-hist-lo", "-10", "-hist-hi", "10", "-hist-bins", "10")
	cmd.Env = append(os.Environ(), "BAGCPD_SERVE_HELPER=1")
	cmd.Stdin = strings.NewReader("not json\n")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
		t.Fatalf("bagcpd on a malformed line = %v, want exit status 2", err)
	}
	if got := stderr.String(); !strings.HasPrefix(got, "bagcpd: line 1: ") || strings.Count(got, "bagcpd:") != 1 {
		t.Fatalf("stderr %q, want one line starting %q", got, "bagcpd: line 1: ")
	}
}

func TestReadCSV(t *testing.T) {
	input := `# comment
0,1.0
0,2.0
1,1.5
1,2.5
2,0.5
2,1.5
3,5.0
3,6.0
`
	var points []*repro.Point
	err := readCSV(strings.NewReader(input), testDetector(t), func(p *repro.Point) {
		if p != nil {
			points = append(points, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].T != 2 {
		t.Fatalf("points = %+v", points)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"short line":     "0\n",
		"bad time":       "x,1\n",
		"bad value":      "0,abc\n",
		"time backwards": "1,1\n0,2\n",
	}
	for name, input := range cases {
		err := readCSV(strings.NewReader(input), testDetector(t), func(*repro.Point) {})
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestReadJSONLStreams: the multiplexed reader gives every stream its
// own bag clock and its output is invariant to the batch size.
func TestReadJSONLStreams(t *testing.T) {
	input := `{"stream":"a","points":[[1],[2],[3]]}
{"stream":"b","points":[[5],[6]]}
{"stream":"a","points":[[1.5],[2.5]]}
{"stream":"b","points":[[5.5],[6.5]]}
{"stream":"a","points":[[0],[1],[2]]}
{"stream":"b","points":[[5],[7]]}
{"stream":"a","points":[[5],[6]]}
{"stream":"b","points":[[0],[1]]}
`
	run := func(batch int) map[string][]*repro.Point {
		eng, err := repro.NewEngine(
			repro.WithTau(2), repro.WithTauPrime(2),
			repro.WithBuilderFactory(repro.HistogramFactory(-10, 10, 10)),
			repro.WithBootstrap(repro.BootstrapConfig{Replicates: 50}),
			repro.WithSeed(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]*repro.Point{}
		err = readJSONLStreams(strings.NewReader(input), eng, batch, func(id string, p *repro.Point) {
			got[id] = append(got[id], p)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run(1)
	// 4 bags per stream, window 4 → exactly one inspection point each.
	for _, id := range []string{"a", "b"} {
		if len(want[id]) != 1 || want[id][0].T != 2 {
			t.Fatalf("stream %s: points = %+v", id, want[id])
		}
	}
	for _, batch := range []int{2, 3, 256} {
		got := run(batch)
		for _, id := range []string{"a", "b"} {
			if len(got[id]) != len(want[id]) {
				t.Fatalf("batch=%d stream=%s: %d points, want %d", batch, id, len(got[id]), len(want[id]))
			}
			for i := range got[id] {
				g, w := *got[id][i], *want[id][i]
				// Compare every field; Kappa needs NaN-aware equality.
				sameKappa := g.Kappa == w.Kappa || (math.IsNaN(g.Kappa) && math.IsNaN(w.Kappa))
				if g.T != w.T || g.Score != w.Score || g.Interval != w.Interval || g.Alarm != w.Alarm || !sameKappa {
					t.Fatalf("batch=%d stream=%s point %d differs: %+v vs %+v", batch, id, i, g, w)
				}
			}
		}
	}
}

// TestReadJSONLStreamsPoisonedStream is the regression test for the
// silent-drop bug: one stream of a multiplexed batch fails mid-run, and
// the reader must (a) still emit the healthy streams' points from that
// batch, (b) name the failing stream, and (c) count every skipped bag
// per stream — instead of dying with only the first error while the
// skipped bags vanish without a trace.
func TestReadJSONLStreamsPoisonedStream(t *testing.T) {
	// Stream b's second bag is empty (unsummarizable); its later bags in
	// the same batch must be counted as skipped. Stream a is healthy and
	// reaches its single inspection point at t=2.
	input := `{"stream":"a","points":[[1],[2],[3]]}
{"stream":"b","points":[[5],[6]]}
{"stream":"a","points":[[1.5],[2.5]]}
{"stream":"b","points":[]}
{"stream":"a","points":[[0],[1],[2]]}
{"stream":"b","points":[[5],[7]]}
{"stream":"a","points":[[5],[6]]}
{"stream":"b","points":[[0],[1]]}
`
	eng, err := repro.NewEngine(
		repro.WithTau(2), repro.WithTauPrime(2),
		repro.WithBuilderFactory(repro.HistogramFactory(-10, 10, 10)),
		repro.WithBootstrap(repro.BootstrapConfig{Replicates: 50}),
		repro.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]*repro.Point{}
	err = readJSONLStreams(strings.NewReader(input), eng, 256, func(id string, p *repro.Point) {
		got[id] = append(got[id], p)
	})
	if err == nil {
		t.Fatal("poisoned stream must fail the run")
	}
	var serr *streamsError
	if !errors.As(err, &serr) {
		t.Fatalf("error is %T, want *streamsError: %v", err, err)
	}
	if serr.Stream != "b" {
		t.Errorf("failing stream = %q, want \"b\"", serr.Stream)
	}
	// The empty bag plus b's two later bags in the batch: 3 skipped.
	if serr.Skipped["b"] != 3 {
		t.Errorf("skipped[b] = %d, want 3 (failing bag + 2 later bags)", serr.Skipped["b"])
	}
	if serr.Skipped["a"] != 0 {
		t.Errorf("skipped[a] = %d, want 0 (healthy stream)", serr.Skipped["a"])
	}
	// Healthy stream a still produced its inspection point.
	if len(got["a"]) != 1 || got["a"][0].T != 2 {
		t.Errorf("stream a points = %+v, want one point at T=2", got["a"])
	}
	if len(got["b"]) != 0 {
		t.Errorf("stream b emitted %d points despite failing before its window filled", len(got["b"]))
	}
	// The rendered report names the stream and the skip counts.
	msg := err.Error()
	for _, want := range []string{`stream "b"`, "3 bag(s) skipped"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error report %q missing %q", msg, want)
		}
	}
}

func TestReadJSONLStreamsMissingID(t *testing.T) {
	eng, err := repro.NewEngine(
		repro.WithTau(2), repro.WithTauPrime(2),
		repro.WithBuilderFactory(repro.HistogramFactory(-10, 10, 10)),
	)
	if err != nil {
		t.Fatal(err)
	}
	err = readJSONLStreams(strings.NewReader(`{"points":[[1]]}`+"\n"), eng, 4, func(string, *repro.Point) {})
	if err == nil {
		t.Fatal("expected error for missing stream id")
	}
}

func TestStatisticFromFlag(t *testing.T) {
	// Every registered statistic is a valid -score value.
	for _, name := range repro.StatisticNames() {
		got, err := statisticFromFlag(name)
		if err != nil || got != name {
			t.Fatalf("statisticFromFlag(%q) = %q, %v", name, got, err)
		}
	}
	// Unknown names are refused with the registry listed, so the error is
	// self-updating as statistics are registered.
	_, err := statisticFromFlag("mahalanobis")
	if err == nil {
		t.Fatal("unknown -score accepted")
	}
	for _, name := range repro.StatisticNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered statistic %q", err, name)
		}
	}
	if !strings.Contains(err.Error(), `"mahalanobis"`) {
		t.Fatalf("error %q does not echo the rejected name", err)
	}
}
