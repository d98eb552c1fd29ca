package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
	"repro/internal/testutil"
	"repro/internal/vec"
)

// refKMeans is the allocating k-means the Workspace replaced, kept
// verbatim as the oracle for the in-place rewrite: fresh clones for the
// k-means++ seeds, a fresh next-center matrix every Lloyd pass, and
// KMedoids' dropEmpty, which builds new slices. It also counts how often the
// degenerate paths ran (seeding stopped early, an empty cluster was
// reseated, an empty cluster was dropped) so the property test can show
// it covered them. drops counts only the empty clusters some kept
// cluster follows, whose removal renumbers the assignments.
func refKMeans(points [][]float64, k int, cfg Config, rng *randx.RNG) (res *Result, shrunk, reseats, drops int) {
	cfg = cfg.withDefaults()
	if k > len(points) {
		k = len(points)
	}

	centers := refSeedPlusPlus(points, k, rng)
	if len(centers) < k {
		shrunk++
	}
	k = len(centers) // may shrink when points collide

	assign := make([]int, len(points))
	counts := make([]int, k)
	prevInertia := math.Inf(1)
	var inertia float64
	iters := 0
	for ; iters < cfg.MaxIters; iters++ {
		// Assignment step.
		inertia = 0
		for i := range counts {
			counts[i] = 0
		}
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := vec.SqDist2(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			counts[best]++
			inertia += bestD
		}
		// Update step.
		d := len(points[0])
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, d)
		}
		for i, p := range points {
			vec.AddScaled(next[assign[i]], 1, p)
		}
		for c := range next {
			if counts[c] == 0 {
				reseats++
				far, farD := 0, -1.0
				for i, p := range points {
					if dd := vec.SqDist2(p, centers[assign[i]]); dd > farD {
						far, farD = i, dd
					}
				}
				next[c] = vec.Clone(points[far])
				continue
			}
			vec.Scale(next[c], 1/float64(counts[c]))
		}
		centers = next
		if prevInertia-inertia <= cfg.Tol*math.Max(prevInertia, 1e-300) {
			iters++
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the last centers.
	inertia = 0
	for i := range counts {
		counts[i] = 0
	}
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, ctr := range centers {
			if d := vec.SqDist2(p, ctr); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		counts[best]++
		inertia += bestD
	}
	// Count only the empty clusters a kept one follows: dropping those
	// renumbers assignments, while a trailing drop just truncates.
	for c := range counts {
		if counts[c] == 0 && slices.ContainsFunc(counts[c+1:], func(n int) bool { return n > 0 }) {
			drops++
		}
	}
	res = dropEmpty(&Result{Centers: centers, Assign: assign, Counts: counts, Inertia: inertia, Iters: iters})
	return res, shrunk, reseats, drops
}

func refSeedPlusPlus(points [][]float64, k int, rng *randx.RNG) [][]float64 {
	centers := make([][]float64, 0, k)
	first := rng.Intn(len(points))
	centers = append(centers, vec.Clone(points[first]))

	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = vec.SqDist2(p, centers[0])
	}
	for len(centers) < k {
		total := vec.Sum(d2)
		if total <= 0 {
			break
		}
		idx := rng.Categorical(d2)
		centers = append(centers, vec.Clone(points[idx]))
		for i, p := range points {
			if d := vec.SqDist2(p, centers[len(centers)-1]); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// sameResult reports the first difference between two k-means results,
// comparing center coordinates and inertia by their bits.
func sameResult(got, want *Result) error {
	if len(got.Centers) != len(want.Centers) {
		return fmt.Errorf("%d centers, want %d", len(got.Centers), len(want.Centers))
	}
	for c := range want.Centers {
		if len(got.Centers[c]) != len(want.Centers[c]) {
			return fmt.Errorf("center %d has dimension %d, want %d", c, len(got.Centers[c]), len(want.Centers[c]))
		}
		for j, v := range want.Centers[c] {
			if math.Float64bits(got.Centers[c][j]) != math.Float64bits(v) {
				return fmt.Errorf("center %d coordinate %d is %v, want %v", c, j, got.Centers[c][j], v)
			}
		}
		if got.Counts[c] != want.Counts[c] {
			return fmt.Errorf("count %d is %d, want %d", c, got.Counts[c], want.Counts[c])
		}
	}
	if len(got.Counts) != len(want.Counts) {
		return fmt.Errorf("%d counts, want %d", len(got.Counts), len(want.Counts))
	}
	for i, a := range want.Assign {
		if got.Assign[i] != a {
			return fmt.Errorf("point %d assigned to %d, want %d", i, got.Assign[i], a)
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		return fmt.Errorf("inertia %v, want %v", got.Inertia, want.Inertia)
	}
	if got.Iters != want.Iters {
		return fmt.Errorf("%d iterations, want %d", got.Iters, want.Iters)
	}
	return nil
}

// workspaceResult views a Workspace's output as a Result.
func workspaceResult(w *Workspace) *Result {
	centers := make([][]float64, len(w.Counts))
	for c := range centers {
		centers[c] = w.Centers[c*w.Dim : (c+1)*w.Dim]
	}
	return &Result{Centers: centers, Assign: w.Assign, Counts: w.Counts, Inertia: w.Inertia, Iters: w.Iters}
}

// TestKMeansMatchesReference is the property test for the in-place
// Lloyd loop: over 3 000 seeded inputs (n ∈ [1,150], d ∈ [1,4],
// k ∈ [1,20]) the package-level KMeans and one Workspace reused across
// every input must reproduce refKMeans bit for bit — centers, counts,
// assignments, inertia, Iters — and leave the RNG at the same position.
// Every third input draws its coordinates from {0,1,2}, so seeding
// stops early on duplicates. Another third scales each point by one of
// 1, 1e150, 1e153 or 1e154: squared distances between scales overflow
// to +Inf, which no strict < prefers, so points fall to the
// lowest-numbered center, clusters empty out, and the reseat and the
// drop run. Every other input sets Tol = NaN, which fails the stopping
// test, so all MaxIters Lloyd passes run.
func TestKMeansMatchesReference(t *testing.T) {
	gen := randx.New(2027)
	var ws Workspace
	var shrunk, reseats, drops int
	for trial := 0; trial < 3000; trial++ {
		n, d, k := 1+gen.Intn(150), 1+gen.Intn(4), 1+gen.Intn(20)
		points := make([][]float64, n)
		for i := range points {
			p := make([]float64, d)
			scale := []float64{1, 1e150, 1e153, 1e154}[gen.Intn(4)]
			for j := range p {
				switch trial % 3 {
				case 0:
					p[j] = float64(gen.Intn(3))
				case 1:
					p[j] = gen.Normal(0, 1) * scale
				default:
					p[j] = gen.Normal(0, 1)
				}
			}
			points[i] = p
		}
		cfg := Config{}
		if trial%2 == 1 {
			cfg = Config{MaxIters: 1 + gen.Intn(8), Tol: math.NaN()}
		}
		seed := int64(trial)

		refRNG := randx.NewFast(seed)
		want, s, r, dr := refKMeans(points, k, cfg, refRNG)
		shrunk, reseats, drops = shrunk+s, reseats+r, drops+dr
		wantState, _ := refRNG.State()

		rng := randx.NewFast(seed)
		got, err := KMeans(points, k, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("trial %d (n=%d d=%d k=%d cfg=%+v): KMeans: %v", trial, n, d, k, cfg, err)
		}
		if st, _ := rng.State(); st != wantState {
			t.Fatalf("trial %d: KMeans left the RNG at %v, want %v", trial, st, wantState)
		}

		rng = randx.NewFast(seed)
		if err := ws.KMeans(points, k, cfg, rng); err != nil {
			t.Fatal(err)
		}
		if err := sameResult(workspaceResult(&ws), want); err != nil {
			t.Fatalf("trial %d (n=%d d=%d k=%d cfg=%+v): reused Workspace: %v", trial, n, d, k, cfg, err)
		}
		if st, _ := rng.State(); st != wantState {
			t.Fatalf("trial %d: Workspace left the RNG at %v, want %v", trial, st, wantState)
		}
	}
	if shrunk == 0 || reseats == 0 || drops == 0 {
		t.Fatalf("inputs missed a degenerate path: %d early seeding stops, %d reseats, %d renumbering drops", shrunk, reseats, drops)
	}
	t.Logf("%d early seeding stops, %d empty-cluster reseats, %d renumbering drops", shrunk, reseats, drops)
}

// serveKMeansPoints is a bag in the serve-kmeans shape: 120 3-D
// standard normal points.
func serveKMeansPoints() [][]float64 {
	gen := randx.New(11)
	points := make([][]float64, 120)
	for i := range points {
		points[i] = gen.NormalVec(3, 0, 1)
	}
	return points
}

// BenchmarkKMeans clusters a serve-kmeans-shaped bag into K=16 on a
// fresh Workspace per call (the package-level KMeans).
func BenchmarkKMeans(b *testing.B) {
	points, rng := serveKMeansPoints(), randx.NewFast(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(points, 16, Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKMeansWorkspaceZeroAllocs: once its buffers have grown to the
// input, a Workspace runs k-means++ seeding, Lloyd and the empty-cluster
// drop without allocating.
func TestKMeansWorkspaceZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	points, rng := serveKMeansPoints(), randx.NewFast(5)
	var ws Workspace
	run := func() {
		if err := ws.KMeans(points, 16, Config{}, rng); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("warm Workspace.KMeans: %g allocs/op, want 0", allocs)
	}
}

func TestKMeansDimensionMismatch(t *testing.T) {
	if _, err := KMeans([][]float64{{1, 2}, {3}}, 2, Config{}, randx.NewFast(1)); err == nil {
		t.Error("expected an error for points of differing dimension")
	}
}

// threeBlobs generates three well-separated Gaussian blobs in 2-D.
func threeBlobs(rng *randx.RNG, n int) (points [][]float64, labels []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for i := 0; i < n; i++ {
		c := i % 3
		p := []float64{
			centers[c][0] + rng.Normal(0, 0.5),
			centers[c][1] + rng.Normal(0, 0.5),
		}
		points = append(points, p)
		labels = append(labels, c)
	}
	return points, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := randx.New(1)
	points, labels := threeBlobs(rng, 300)
	res, err := KMeans(points, 3, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("got %d centers, want 3", len(res.Centers))
	}
	// Every true cluster must map to exactly one k-means cluster.
	seen := map[int]map[int]int{}
	for i, a := range res.Assign {
		if seen[labels[i]] == nil {
			seen[labels[i]] = map[int]int{}
		}
		seen[labels[i]][a]++
	}
	for lbl, m := range seen {
		if len(m) != 1 {
			t.Errorf("true cluster %d split across k-means clusters %v", lbl, m)
		}
	}
	// Counts sum to the number of points.
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != len(points) {
		t.Errorf("counts sum to %d, want %d", total, len(points))
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := randx.New(1)
	if _, err := KMeans(nil, 3, Config{}, rng); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := KMeans([][]float64{{1}}, 0, Config{}, rng); err == nil {
		t.Error("expected error on k=0")
	}
}

func TestKMeansFewerPointsThanK(t *testing.T) {
	rng := randx.New(2)
	points := [][]float64{{0}, {10}}
	res, err := KMeans(points, 5, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 2 {
		t.Fatalf("got %d centers for 2 points", len(res.Centers))
	}
}

func TestKMeansAllIdenticalPoints(t *testing.T) {
	rng := randx.New(3)
	points := [][]float64{{5, 5}, {5, 5}, {5, 5}}
	res, err := KMeans(points, 3, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 1 {
		t.Fatalf("identical points should give one center, got %d", len(res.Centers))
	}
	if res.Inertia != 0 {
		t.Errorf("inertia = %g, want 0", res.Inertia)
	}
}

func TestKMeansK1IsMean(t *testing.T) {
	rng := randx.New(4)
	points := [][]float64{{0, 0}, {2, 2}, {4, 4}}
	res, err := KMeans(points, 1, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centers[0][0]-2) > 1e-9 || math.Abs(res.Centers[0][1]-2) > 1e-9 {
		t.Errorf("k=1 center = %v, want mean [2 2]", res.Centers[0])
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := randx.New(5)
	points, _ := threeBlobs(rng, 150)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 3, 6} {
		res, err := KMeans(points, k, Config{}, randx.New(99))
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Errorf("inertia should not increase with k: k=%d inertia=%g prev=%g", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestKMeansDeterministicGivenSeed(t *testing.T) {
	points, _ := threeBlobs(randx.New(6), 90)
	a, _ := KMeans(points, 3, Config{}, randx.New(7))
	b, _ := KMeans(points, 3, Config{}, randx.New(7))
	for i := range a.Centers {
		if vec.Dist2(a.Centers[i], b.Centers[i]) != 0 {
			t.Fatal("same seed must give identical clustering")
		}
	}
}

func TestKMedoidsRecoversBlobs(t *testing.T) {
	rng := randx.New(8)
	points, labels := threeBlobs(rng, 150)
	res, err := KMedoids(points, 3, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("got %d medoids, want 3", len(res.Centers))
	}
	// Medoids must be actual data points.
	for _, m := range res.Centers {
		found := false
		for _, p := range points {
			if vec.SqDist2(m, p) == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Error("medoid is not a data point")
		}
	}
	seen := map[int]map[int]int{}
	for i, a := range res.Assign {
		if seen[labels[i]] == nil {
			seen[labels[i]] = map[int]int{}
		}
		seen[labels[i]][a]++
	}
	for lbl, m := range seen {
		if len(m) != 1 {
			t.Errorf("true cluster %d split: %v", lbl, m)
		}
	}
}

func TestKMedoidsErrors(t *testing.T) {
	rng := randx.New(1)
	if _, err := KMedoids(nil, 2, Config{}, rng); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := KMedoids([][]float64{{1}}, -1, Config{}, rng); err == nil {
		t.Error("expected error on k<1")
	}
}

func TestKMedoidsRobustToOutlier(t *testing.T) {
	// A single extreme outlier should not drag a medoid far from the mass.
	rng := randx.New(9)
	var points [][]float64
	for i := 0; i < 50; i++ {
		points = append(points, []float64{rng.Normal(0, 0.3)})
	}
	points = append(points, []float64{1000})
	res, err := KMedoids(points, 1, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centers[0][0]) > 2 {
		t.Errorf("medoid dragged to %v by outlier", res.Centers[0])
	}
}

func TestOnlineQuantizer(t *testing.T) {
	rng := randx.New(10)
	points, _ := threeBlobs(rng, 600)
	o := NewOnline(3, 0.5)
	for _, p := range points {
		o.Push(p)
	}
	res := o.Result(points)
	if len(res.Centers) != 3 {
		t.Fatalf("got %d centers", len(res.Centers))
	}
	// Each center should sit near one of the true blob centers.
	truth := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for _, ctr := range res.Centers {
		bestD := math.Inf(1)
		for _, tc := range truth {
			if d := vec.Dist2(ctr, tc); d < bestD {
				bestD = d
			}
		}
		if bestD > 1.5 {
			t.Errorf("online center %v is %g away from any true center", ctr, bestD)
		}
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != len(points) {
		t.Errorf("assigned counts sum to %d, want %d", total, len(points))
	}
}

func TestOnlineDuplicateSeeds(t *testing.T) {
	o := NewOnline(3, 0.5)
	o.Push([]float64{1})
	o.Push([]float64{1}) // duplicate must not become a second center
	o.Push([]float64{2})
	if len(o.Centers) != 2 {
		t.Fatalf("got %d centers, want 2", len(o.Centers))
	}
}

func TestOnlineDefaultRate(t *testing.T) {
	o := NewOnline(2, -1)
	if o.rate0 != 0.5 {
		t.Errorf("default rate = %g, want 0.5", o.rate0)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxIters != 50 || c.Tol != 1e-6 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{MaxIters: 5, Tol: 0.1}.withDefaults()
	if c2.MaxIters != 5 || c2.Tol != 0.1 {
		t.Errorf("explicit config overridden: %+v", c2)
	}
}
