package mlmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLinearExactFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	var m Linear
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Slope-2) > 1e-9 || math.Abs(m.Intercept-1) > 1e-9 {
		t.Fatalf("fit = %+v", m)
	}
	if p := m.Predict(10); math.Abs(p-21) > 1e-9 {
		t.Fatalf("Predict(10) = %g", p)
	}
}

func TestLinearDegenerate(t *testing.T) {
	var m Linear
	if err := m.Fit(nil, nil); err != ErrEmptyTrainingSet {
		t.Fatalf("empty fit err = %v", err)
	}
	if err := m.Fit([]float64{1}, []float64{2, 3}); err != ErrBadShape {
		t.Fatalf("shape err = %v", err)
	}
	if err := m.Fit([]float64{5}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	if m.Predict(123) != 7 {
		t.Fatal("single-sample fit should be constant")
	}
	// All-identical x.
	if err := m.Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.Slope != 0 || m.Predict(0) != 2 {
		t.Fatalf("identical-x fit = %+v", m)
	}
}

func TestLinearEndpoints(t *testing.T) {
	var m Linear
	if err := m.FitEndpoints([]float64{0, 5, 10}, []float64{0, 1, 20}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict(5)-10) > 1e-9 {
		t.Fatalf("endpoint fit Predict(5) = %g", m.Predict(5))
	}
	if err := m.FitEndpoints(nil, nil); err != ErrEmptyTrainingSet {
		t.Fatal("expected empty error")
	}
	if err := m.FitEndpoints([]float64{3, 3}, []float64{1, 9}); err != nil {
		t.Fatal(err)
	}
	if m.Predict(3) != 1 {
		t.Fatal("degenerate endpoints should be constant")
	}
}

// Property: least squares never has higher squared error than the endpoint
// fit on the same data.
func TestLinearLeastSquaresOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = 3*xs[i] + r.NormFloat64()*10
		}
		sort.Float64s(xs)
		var ls, ep Linear
		if ls.Fit(xs, ys) != nil || ep.FitEndpoints(xs, ys) != nil {
			return false
		}
		sse := func(m *Linear) float64 {
			var s float64
			for i := range xs {
				d := m.Predict(xs[i]) - ys[i]
				s += d * d
			}
			return s
		}
		return sse(&ls) <= sse(&ep)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPolynomialQuadratic(t *testing.T) {
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		x := float64(i)
		xs[i] = x
		ys[i] = 2*x*x - 3*x + 1
	}
	m := NewPolynomial(2)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 10, 25, 49} {
		want := 2*x*x - 3*x + 1
		if got := m.Predict(x); math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("Predict(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestPolynomialDegenerateFallback(t *testing.T) {
	// All-identical x makes the system singular; Fit must fall back to the
	// constant/linear solution instead of erroring.
	m := NewPolynomial(3)
	if err := m.Fit([]float64{5, 5, 5}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(5); math.Abs(got-2) > 1e-9 {
		t.Fatalf("fallback Predict(5) = %g, want mean 2", got)
	}
	if err := m.Fit(nil, nil); err != ErrEmptyTrainingSet {
		t.Fatal("expected empty error")
	}
}

func TestPolynomialLargeScaleStability(t *testing.T) {
	// Key-scale inputs (1e18) must not blow up the normal equations.
	n := 100
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = 1e18 + float64(i)*1e12
		ys[i] = float64(i)
	}
	m := NewPolynomial(2)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 13 {
		if got := m.Predict(xs[i]); math.Abs(got-ys[i]) > 0.5 {
			t.Fatalf("Predict(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestLogisticSeparable(t *testing.T) {
	// Keys below 0.5 are negatives, above are positives: linearly separable
	// in feature space.
	var xs []float64
	var labels []bool
	for i := 0; i < 400; i++ {
		x := float64(i) / 400
		xs = append(xs, x)
		labels = append(labels, x >= 0.5)
	}
	m := NewLogistic(KeyFeatureDim, KeyFeatures)
	if err := m.FitLabels(xs, labels); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		if (m.Predict(x) >= 0.5) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Fatalf("accuracy = %g, want >= 0.95", acc)
	}
}

func TestLogisticErrors(t *testing.T) {
	m := NewLogistic(KeyFeatureDim, KeyFeatures)
	if err := m.FitLabels(nil, nil); err != ErrEmptyTrainingSet {
		t.Fatal("expected empty error")
	}
	if err := m.FitLabels([]float64{1}, []bool{true, false}); err != ErrBadShape {
		t.Fatal("expected shape error")
	}
	if err := m.Fit([]float64{0.1, 0.9}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %g", s)
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("Sigmoid(100) = %g", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("Sigmoid(-100) = %g", s)
	}
	// Symmetry.
	for _, z := range []float64{0.5, 2, 10, 50} {
		if d := Sigmoid(z) + Sigmoid(-z) - 1; math.Abs(d) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %g: %g", z, d)
		}
	}
}

func TestMLPFitsMonotoneCurve(t *testing.T) {
	n := 512
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := float64(i) / float64(n)
		xs[i] = x
		ys[i] = math.Sqrt(x) * 1000 // concave CDF-like curve
	}
	m := NewMLP(16)
	m.Epochs = 1500
	m.LearningRate = 0.1
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < n; i += 7 {
		d := math.Abs(m.Predict(xs[i]) - ys[i])
		if d > worst {
			worst = d
		}
	}
	// A tiny MLP won't be exact, but must be a usable coarse router:
	// within 15% of the output range.
	if worst > 150 {
		t.Fatalf("worst error = %g, want <= 150", worst)
	}
}

func TestMLPErrors(t *testing.T) {
	m := NewMLP(4)
	if err := m.Fit(nil, nil); err != ErrEmptyTrainingSet {
		t.Fatal("expected empty error")
	}
	if err := m.Fit([]float64{1}, []float64{1, 2}); err != ErrBadShape {
		t.Fatal("expected shape error")
	}
}

func TestModelBytesPositive(t *testing.T) {
	models := []Model{
		&Linear{}, NewPolynomial(2), NewLogistic(KeyFeatureDim, KeyFeatures),
		NewMLP(4),
	}
	for _, m := range models {
		if m.Bytes() <= 0 {
			t.Fatalf("%T Bytes() = %d", m, m.Bytes())
		}
	}
}

func TestSolveGaussSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveGauss(a, b); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}
