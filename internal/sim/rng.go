package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a seeded random stream. Components derive independent streams
// from a root seed and a name, so adding a component never perturbs the
// draws of another (a common reproducibility hazard when sharing one
// rand.Rand across a simulation).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream derived from seed and name.
func NewRNG(seed int64, name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	derived := seed ^ int64(h.Sum64())
	return &RNG{r: rand.New(rand.NewSource(derived))}
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponential draw with the given mean. Mean must be
// positive.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Poisson returns a Poisson draw with the given mean, using inversion for
// small means and a normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= g.r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := g.r.NormFloat64()*math.Sqrt(mean) + mean
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// LogNorm returns a log-normal draw where the underlying normal has the
// given mu and sigma.
func (g *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// Shuffle randomises the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
