package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"

	lix "github.com/lix-go/lix"
)

// The benchmark owns its generators: keys, Zipf ranks, points and rectangles
// are all made here from -seed alone, so editing program code cannot change
// the load.

// mix is the SplitMix64 finalizer. Stored values are mix(key), which lets any
// reader check any hit without shared state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// rng is xoshiro256**, written out so a Go release cannot change a stream.
type rng struct{ s [4]uint64 }

func newRNG(seed uint64) *rng {
	r := &rng{}
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		r.s[i] = mix(seed)
	}
	return r
}

func (r *rng) u64() uint64 {
	s := &r.s
	out := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return out
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n); n is far below 2^32, so the modulo
// bias is below 2^-32.
func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// norm returns a standard normal value (Box-Muller).
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0, 1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// zipf draws ranks in [0, n) with P(rank) ~ 1/(rank+1)^theta, after Gray et
// al. ("Quickly generating billion-record synthetic databases").
type zipf struct {
	n, alpha, zetan, eta float64
	half                 float64 // 0.5^theta
}

func newZipf(n int, theta float64) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	half := math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), alpha: 1 / (1 - theta), zetan: zetan, half: half,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - (1+half)/zetan),
	}
}

func (z *zipf) next(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	rank := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= int(z.n) {
		rank = int(z.n) - 1
	}
	return rank
}

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset       { return make(bitset, (n+63)/64) }
func (b bitset) get(i uint32) bool { return b[i>>6]>>(i&63)&1 != 0 }
func (b bitset) set(i uint32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i uint32)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) clone() bitset     { return append(bitset(nil), b...) }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// keyspace is the key universe of one key-value workload: ascending keys with
// lognormal gaps, laid out in groups of eight slots. Slot 0 of each group is
// a churn slot (the target of new-key SETs and of DELs, owned by one worker);
// slots 1..7 are base slots, preloaded and never deleted.
type keyspace struct {
	keys []uint64
	init bitset // presence after preload
}

func isChurn(slot uint32) bool { return slot&7 == 0 }

// owner is the worker that alone writes churn slot `slot`.
func owner(slot uint32) int { return int(slot>>3) % workers }

// baseSlot maps the b-th base key to its slot.
func baseSlot(b int) uint32 { return uint32(b + b/7 + 1) }

func newKeyspace(w *kvWorkload, seed uint64, scale int) *keyspace {
	groups := scaled(w.baseKeys, scale, 7*64) / 7
	r := newRNG(mix(seed) ^ 0x6b657973) // "keys"
	ks := &keyspace{keys: make([]uint64, groups*8), init: newBitset(groups * 8)}
	cur := uint64(1 << 20)
	for i := range ks.keys {
		cur += 1 + uint64(math.Exp(r.norm()*1.5+4))
		ks.keys[i] = cur
		slot := uint32(i)
		if !isChurn(slot) || float64(mix(uint64(i)^seed)>>11)/(1<<53) < w.churnInit {
			ks.init.set(slot)
		}
	}
	return ks
}

// preload returns the records present before the first operation.
func (ks *keyspace) preload() []lix.KV {
	recs := make([]lix.KV, 0, len(ks.keys))
	for i, k := range ks.keys {
		if ks.init.get(uint32(i)) {
			recs = append(recs, lix.KV{Key: k, Value: mix(k)})
		}
	}
	return recs
}

// Operation codes of a stream entry.
const (
	opGet uint8 = iota
	opSet
	opDel
	opScan
)

// op is one pre-generated operation. It names a slot, not an expected result:
// the worker that runs it tracks presence itself, so a stream can be replayed
// from any state.
type op struct {
	key  uint64
	slot uint32
	code uint8
}

// genStream makes worker id's operation stream for w.
func genStream(w *kvWorkload, ks *keyspace, id int, seed uint64, scale int) []op {
	r := newRNG(mix(seed) ^ 0x73747265616d ^ uint64(id)<<48) // "stream"
	groups := len(ks.keys) / 8
	nBase := groups * 7
	var z *zipf
	if w.zipf {
		z = newZipf(nBase, 0.99)
	}
	// Multiplying a rank by a constant coprime to nBase spreads the hot
	// ranks over the key range instead of packing them at its low end.
	spread := 2654435761 % nBase
	for gcd(spread, nBase) != 1 {
		spread++
	}
	base := func() uint32 {
		if z != nil {
			return baseSlot(int(uint64(z.next(r)) * uint64(spread) % uint64(nBase)))
		}
		return baseSlot(r.intn(nBase))
	}
	ownChurn := func() uint32 {
		g := r.intn((groups-id+workers-1)/workers)*workers + id
		return uint32(g * 8)
	}
	out := make([]op, scaled(streamLen, scale, 4*spanBatch))
	for i := range out {
		var o op
		switch p := r.intn(100); {
		case p < w.getPct:
			o.code = opGet
			if r.float() < w.churnGetFrac {
				o.slot = uint32(r.intn(groups) * 8)
			} else {
				o.slot = base()
			}
		case p < w.getPct+w.setPct:
			o.code = opSet
			if r.float() < w.newFrac {
				o.slot = ownChurn()
			} else {
				o.slot = base()
			}
		case p < w.getPct+w.setPct+w.delPct:
			o.code, o.slot = opDel, ownChurn()
		default:
			o.code, o.slot = opScan, base()
		}
		o.key = ks.keys[o.slot]
		out[i] = o
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// streamSHA hashes the operation streams of all workers.
func streamSHA(streams [][]op) string {
	h := sha256.New()
	var buf [13]byte
	for _, s := range streams {
		for _, o := range s {
			binary.LittleEndian.PutUint64(buf[0:], o.key)
			binary.LittleEndian.PutUint32(buf[8:], o.slot)
			buf[12] = o.code
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
