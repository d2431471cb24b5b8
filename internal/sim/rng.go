package sim

// RNG is a counter-based splitmix64 random stream. Handlers cannot share
// one source: the order in which concurrent handlers draw from it
// depends on the interleaving, which would make delays — and therefore
// the whole replay — racy. Instead every node owns private streams keyed by
// (engine seed, node identifier, salt); a stream's output depends only
// on its key and on how many draws *that node* has made, both of which
// are deterministic under the barrier schedule regardless of how many
// workers execute it.
//
// splitmix64 passes BigCrush, is allocation-free, and is seedable from
// an arbitrary 64-bit key, which makes it the standard choice for
// reproducible per-entity streams (it is the seeding generator of
// xoshiro and of java.util.SplittableRandom).
type RNG struct {
	state uint64
}

// NewRNG derives an independent stream for one node. Different salts
// yield independent streams for the same node (the overlay's hop-delay
// draws and the processor's placement draws must not share a counter).
func NewRNG(seed int64, node uint64, salt uint64) *RNG {
	// Pre-mix the key parts so correlated inputs (node ids sharing high
	// bits, small seeds) land in uncorrelated stream positions.
	return &RNG{state: mix64(uint64(seed)) ^ mix64(node+0x9E3779B97F4A7C15) ^ mix64(salt^0xD1B54A32D192ED03)}
}

// mix64 is the splitmix64 output function, used here to whiten keys.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return mix64(r.state)
}

// Int63n returns a uniform value in [0, n). n must be positive. The
// modulo bias is below 2^-52 for every n the simulator uses (delay
// spreads, candidate counts) — far below anything an experiment could
// observe.
func (r *RNG) Int63n(n int64) int64 {
	return int64(r.Uint64()>>1) % n
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision
// (the math/rand construction). The overlay's fault-injection draws —
// drop, duplication and delay-spike Bernoulli trials — use this.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
