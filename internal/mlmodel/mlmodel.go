// Package mlmodel implements the small machine-learning models that learned
// index structures are built from: linear regression (closed form),
// polynomial regression (normal equations), logistic regression (SGD) and a
// tiny multilayer perceptron.
//
// The surveyed learned indexes deliberately avoid heavyweight models (paper
// §6.2): model evaluation sits on the lookup critical path, so everything
// here is a handful of multiply-adds. All models map a uint64 key (converted
// to float64) to a predicted position or probability.
package mlmodel

import (
	"errors"
	"math"
)

// Model predicts a float64 output (usually a position or a CDF value in
// [0,1]) for a float64 input (usually a key).
type Model interface {
	// Predict returns the model output for input x.
	Predict(x float64) float64
	// Bytes returns the approximate in-memory size of the model.
	Bytes() int
}

// Trainable is a Model that can be fit to (x, y) pairs.
type Trainable interface {
	Model
	// Fit trains the model on parallel slices xs and ys.
	Fit(xs, ys []float64) error
}

var (
	// ErrEmptyTrainingSet is returned by Fit when no samples are given.
	ErrEmptyTrainingSet = errors.New("mlmodel: empty training set")
	// ErrBadShape is returned when xs and ys differ in length.
	ErrBadShape = errors.New("mlmodel: xs and ys length mismatch")
	// ErrSingular is returned when a least-squares system is singular.
	ErrSingular = errors.New("mlmodel: singular system")
)

// ---------------------------------------------------------------------------
// Linear regression
// ---------------------------------------------------------------------------

// Linear is y = Slope*x + Intercept, fit by ordinary least squares in one
// pass. It is the workhorse model of RMI stage-2, ALEX nodes, LIPP nodes and
// PGM segments.
type Linear struct {
	Slope, Intercept float64
}

// Predict returns Slope*x + Intercept.
func (m *Linear) Predict(x float64) float64 { return m.Slope*x + m.Intercept }

// Bytes returns the model footprint.
func (m *Linear) Bytes() int { return 16 }

// Fit computes the least-squares line through (xs, ys). With a single
// sample the model becomes the constant ys[0]. Inputs are shifted by their
// means for numerical stability with large uint64-derived keys.
func (m *Linear) Fit(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return ErrBadShape
	}
	n := len(xs)
	if n == 0 {
		return ErrEmptyTrainingSet
	}
	if n == 1 {
		m.Slope, m.Intercept = 0, ys[0]
		return nil
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		// All x identical: constant model.
		m.Slope, m.Intercept = 0, my
		return nil
	}
	m.Slope = sxy / sxx
	m.Intercept = my - m.Slope*mx
	return nil
}

// FitEndpoints fits the line through the first and last samples; cheaper
// than least squares and monotone-preserving on sorted data. Used by
// spline-style models.
func (m *Linear) FitEndpoints(xs, ys []float64) error {
	n := len(xs)
	if n != len(ys) {
		return ErrBadShape
	}
	if n == 0 {
		return ErrEmptyTrainingSet
	}
	if n == 1 || xs[n-1] == xs[0] {
		m.Slope, m.Intercept = 0, ys[0]
		return nil
	}
	m.Slope = (ys[n-1] - ys[0]) / (xs[n-1] - xs[0])
	m.Intercept = ys[0] - m.Slope*xs[0]
	return nil
}

// ---------------------------------------------------------------------------
// Polynomial regression
// ---------------------------------------------------------------------------

// Polynomial is y = sum_i Coef[i] * x^i, fit by normal equations. Degree 2-3
// polynomials appear in PolyFit-style indexes and as RMI root models.
type Polynomial struct {
	Coef []float64 // Coef[i] multiplies x^i
	// shift/scale standardize inputs before exponentiation to keep the
	// normal equations well-conditioned on key-scale inputs.
	shift, scale float64
}

// NewPolynomial returns an untrained polynomial of the given degree (>= 1).
func NewPolynomial(degree int) *Polynomial {
	return &Polynomial{Coef: make([]float64, degree+1), scale: 1}
}

// Predict evaluates the polynomial with Horner's rule.
func (m *Polynomial) Predict(x float64) float64 {
	x = (x - m.shift) / m.scale
	var y float64
	for i := len(m.Coef) - 1; i >= 0; i-- {
		y = y*x + m.Coef[i]
	}
	return y
}

// Bytes returns the model footprint.
func (m *Polynomial) Bytes() int { return 16 + 8*len(m.Coef) }

// Fit solves the least-squares system via normal equations with Gaussian
// elimination and partial pivoting.
func (m *Polynomial) Fit(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return ErrBadShape
	}
	if len(xs) == 0 {
		return ErrEmptyTrainingSet
	}
	d := len(m.Coef)
	// Standardize x to [-1, 1] over the observed range.
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	m.shift = (lo + hi) / 2
	m.scale = (hi - lo) / 2
	if m.scale == 0 {
		m.scale = 1
	}
	// Build normal equations A c = b with A[i][j] = sum x^(i+j).
	pow := make([]float64, 2*d-1)
	b := make([]float64, d)
	xp := make([]float64, d)
	for k := range xs {
		x := (xs[k] - m.shift) / m.scale
		p := 1.0
		for i := 0; i < d; i++ {
			xp[i] = p
			p *= x
		}
		p = 1.0
		for i := 0; i < 2*d-1; i++ {
			pow[i] += p
			p *= x
		}
		for i := 0; i < d; i++ {
			b[i] += xp[i] * ys[k]
		}
	}
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			a[i][j] = pow[i+j]
		}
	}
	c, err := solveGauss(a, b)
	if err != nil {
		// Fall back to the best linear fit rather than failing the build.
		var lin Linear
		if lerr := lin.Fit(xs, ys); lerr != nil {
			return lerr
		}
		for i := range m.Coef {
			m.Coef[i] = 0
		}
		m.Coef[0] = lin.Intercept + lin.Slope*m.shift
		if len(m.Coef) > 1 {
			m.Coef[1] = lin.Slope * m.scale
		}
		return nil
	}
	copy(m.Coef, c)
	return nil
}

// solveGauss solves a*x = b with partial pivoting, destroying a and b.
func solveGauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

// Logistic is a binary classifier p(y=1|x) = sigmoid(w*phi(x) + b) over a
// small fixed feature expansion of the key. It backs the learned Bloom
// filter (classifier + backup filter architecture of Kraska et al.).
type Logistic struct {
	W    []float64
	B    float64
	Feat FeatureFunc
	// Training hyperparameters; zero values select sensible defaults.
	LearningRate float64
	Epochs       int
	L2           float64
}

// FeatureFunc expands an input into a feature vector. Implementations must
// always return the same length.
type FeatureFunc func(x float64, out []float64)

// KeyFeatures is the default 8-dimensional expansion used for key-valued
// inputs: normalized value, low/mid bit buckets and smooth transforms. The
// input is expected pre-normalized to roughly [0, 1].
func KeyFeatures(x float64, out []float64) {
	out[0] = x
	out[1] = x * x
	out[2] = math.Sqrt(math.Abs(x))
	out[3] = math.Sin(2 * math.Pi * x)
	out[4] = math.Cos(2 * math.Pi * x)
	out[5] = math.Sin(32 * math.Pi * x)
	out[6] = math.Mod(x*64, 1)
	out[7] = 1 // bias-like constant feature
}

// KeyFeatureDim is the feature dimension of KeyFeatures.
const KeyFeatureDim = 8

// NewLogistic returns a logistic model over dim features.
func NewLogistic(dim int, feat FeatureFunc) *Logistic {
	return &Logistic{W: make([]float64, dim), Feat: feat}
}

// Sigmoid is the standard logistic function.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Predict returns p(y=1|x).
func (m *Logistic) Predict(x float64) float64 {
	buf := make([]float64, len(m.W))
	m.Feat(x, buf)
	z := m.B
	for i, w := range m.W {
		z += w * buf[i]
	}
	return Sigmoid(z)
}

// Bytes returns the model footprint.
func (m *Logistic) Bytes() int { return 8*len(m.W) + 8 }

// FitLabels trains with SGD on inputs xs with binary labels (true = 1).
func (m *Logistic) FitLabels(xs []float64, labels []bool) error {
	if len(xs) != len(labels) {
		return ErrBadShape
	}
	if len(xs) == 0 {
		return ErrEmptyTrainingSet
	}
	lr := m.LearningRate
	if lr == 0 {
		lr = 0.5
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 20
	}
	buf := make([]float64, len(m.W))
	// Deterministic shuffled order via an LCG so training is reproducible.
	n := len(xs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	state := uint64(0x9e3779b97f4a7c15)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for e := 0; e < epochs; e++ {
		for i := n - 1; i > 0; i-- {
			j := next(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		step := lr / (1 + 0.1*float64(e))
		for _, idx := range order {
			m.Feat(xs[idx], buf)
			z := m.B
			for i, w := range m.W {
				z += w * buf[i]
			}
			p := Sigmoid(z)
			y := 0.0
			if labels[idx] {
				y = 1.0
			}
			g := p - y
			for i := range m.W {
				m.W[i] -= step * (g*buf[i] + m.L2*m.W[i])
			}
			m.B -= step * g
		}
	}
	return nil
}

// Fit trains on (xs, ys) where ys are 0/1 targets, satisfying Trainable.
func (m *Logistic) Fit(xs, ys []float64) error {
	labels := make([]bool, len(ys))
	for i, y := range ys {
		labels[i] = y >= 0.5
	}
	return m.FitLabels(xs, labels)
}

// ---------------------------------------------------------------------------
// Tiny MLP
// ---------------------------------------------------------------------------

// MLP is a one-hidden-layer perceptron with ReLU activation, the "NN root
// model" configuration of the original RMI paper. Input and output are
// scalar; the hidden width is configurable.
type MLP struct {
	W1, B1 []float64 // hidden weights/biases
	W2     []float64 // output weights
	B2     float64
	// Training hyperparameters; zero values select defaults.
	LearningRate float64
	Epochs       int
	// Input/output standardization learned during Fit.
	xShift, xScale float64
	yShift, yScale float64
}

// NewMLP returns an MLP with the given hidden width.
func NewMLP(hidden int) *MLP {
	m := &MLP{
		W1: make([]float64, hidden),
		B1: make([]float64, hidden),
		W2: make([]float64, hidden),
	}
	// Deterministic small init spread over [-0.5, 0.5].
	state := uint64(88172645463325252)
	rnd := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000)/1000 - 0.5
	}
	for i := 0; i < hidden; i++ {
		m.W1[i] = rnd()
		m.B1[i] = rnd() * 0.1
		m.W2[i] = rnd()
	}
	m.xScale, m.yScale = 1, 1
	return m
}

// Predict runs the forward pass.
func (m *MLP) Predict(x float64) float64 {
	x = (x - m.xShift) / m.xScale
	var y float64
	for i := range m.W1 {
		h := m.W1[i]*x + m.B1[i]
		if h > 0 {
			y += m.W2[i] * h
		}
	}
	y += m.B2
	return y*m.yScale + m.yShift
}

// Bytes returns the model footprint.
func (m *MLP) Bytes() int { return 24*len(m.W1) + 8*5 }

// Fit trains with full-batch gradient descent on standardized data.
func (m *MLP) Fit(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return ErrBadShape
	}
	n := len(xs)
	if n == 0 {
		return ErrEmptyTrainingSet
	}
	// Standardize.
	m.xShift, m.xScale = meanScale(xs)
	m.yShift, m.yScale = meanScale(ys)
	lr := m.LearningRate
	if lr == 0 {
		lr = 0.05
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 200
	}
	h := len(m.W1)
	gw1 := make([]float64, h)
	gb1 := make([]float64, h)
	gw2 := make([]float64, h)
	inv := 1 / float64(n)
	// Cap per-epoch cost: sample at most 4096 points per epoch.
	stride := 1
	if n > 4096 {
		stride = n / 4096
	}
	for e := 0; e < epochs; e++ {
		for i := range gw1 {
			gw1[i], gb1[i], gw2[i] = 0, 0, 0
		}
		var gb2 float64
		for idx := 0; idx < n; idx += stride {
			x := (xs[idx] - m.xShift) / m.xScale
			yt := (ys[idx] - m.yShift) / m.yScale
			var y float64
			for i := 0; i < h; i++ {
				a := m.W1[i]*x + m.B1[i]
				if a > 0 {
					y += m.W2[i] * a
				}
			}
			y += m.B2
			g := 2 * (y - yt) * inv * float64(stride)
			for i := 0; i < h; i++ {
				a := m.W1[i]*x + m.B1[i]
				if a > 0 {
					gw2[i] += g * a
					gw1[i] += g * m.W2[i] * x
					gb1[i] += g * m.W2[i]
				}
			}
			gb2 += g
		}
		for i := 0; i < h; i++ {
			m.W1[i] -= lr * gw1[i]
			m.B1[i] -= lr * gb1[i]
			m.W2[i] -= lr * gw2[i]
		}
		m.B2 -= lr * gb2
	}
	return nil
}

func meanScale(v []float64) (shift, scale float64) {
	var mn, mx = v[0], v[0]
	for _, x := range v {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	shift = (mn + mx) / 2
	scale = (mx - mn) / 2
	if scale == 0 {
		scale = 1
	}
	return shift, scale
}
