package page

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

func TestHeaderAccessors(t *testing.T) {
	p := Buf(make([]byte, Size4K))
	p.Reset(TypeLeaf, 42)
	p.SetCount(7)
	p.SetLink(99)
	if p.Type() != TypeLeaf || p.ID() != 42 || p.Count() != 7 || p.Link() != 99 {
		t.Fatalf("header round-trip: type=%d id=%d count=%d link=%d", p.Type(), p.ID(), p.Count(), p.Link())
	}
	p.Seal()
	if !p.VerifyCRC() {
		t.Fatal("sealed page fails CRC")
	}
	p[HeaderSize] ^= 1
	if p.VerifyCRC() {
		t.Fatal("CRC missed a payload flip")
	}
}

func TestLeafInsertSearchDelete(t *testing.T) {
	p := Buf(make([]byte, Size4K))
	p.Reset(TypeLeaf, 1)
	keys := []core.Key{50, 10, 30, 20, 40}
	for _, k := range keys {
		i, found := p.LeafSearch(k)
		if found {
			t.Fatalf("key %d found before insert", k)
		}
		p.LeafInsertAt(i, k, core.Value(k*2))
	}
	for i := 1; i < p.Count(); i++ {
		if p.LeafKey(i-1) >= p.LeafKey(i) {
			t.Fatalf("leaf not sorted at %d", i)
		}
	}
	for _, k := range keys {
		i, found := p.LeafSearch(k)
		if !found || p.LeafVal(i) != core.Value(k*2) {
			t.Fatalf("key %d: found=%v val=%d", k, found, p.LeafVal(i))
		}
	}
	i, _ := p.LeafSearch(30)
	p.LeafDeleteAt(i)
	if _, found := p.LeafSearch(30); found {
		t.Fatal("deleted key still found")
	}
	if p.Count() != 4 {
		t.Fatalf("count = %d after delete", p.Count())
	}
	// The vacated slot must be zeroed (canonical form).
	if d, err := Decode(Encode(mustDecodeRaw(t, p))); err != nil || len(d.Keys) != 4 {
		t.Fatalf("post-delete page not canonical: %v", err)
	}
}

// mustDecodeRaw seals a copy of p and decodes it.
func mustDecodeRaw(t *testing.T, p Buf) *Decoded {
	t.Helper()
	q := append(Buf(nil), p...)
	q.Seal()
	d, err := Decode(q)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return d
}

func TestInnerRoute(t *testing.T) {
	p := Buf(make([]byte, Size4K))
	p.Reset(TypeInner, 1)
	// Separators 10, 20, 30 with children 100, 200, 300 and link 400:
	// keys < 10 -> 100, [10,20) -> 200, [20,30) -> 300, >= 30 -> 400.
	p.InnerInsertAt(0, 10, 100)
	p.InnerInsertAt(1, 20, 200)
	p.InnerInsertAt(2, 30, 300)
	p.SetLink(400)
	cases := []struct {
		k    core.Key
		want uint64
	}{{0, 100}, {9, 100}, {10, 200}, {19, 200}, {20, 300}, {29, 300}, {30, 400}, {1000, 400}}
	for _, c := range cases {
		if got := p.InnerRoute(c.k); got != c.want {
			t.Errorf("route(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	for _, ps := range []int{Size4K, Size8K} {
		p := Buf(make([]byte, ps))
		p.Reset(TypeLeaf, 7)
		p.SetLink(8)
		for i := 0; i < 10; i++ {
			p.LeafInsertAt(i, core.Key(i*i+1), core.Value(i))
		}
		p.Seal()
		d, err := Decode(p)
		if err != nil {
			t.Fatalf("size %d: decode: %v", ps, err)
		}
		if d.Type != TypeLeaf || d.ID != 7 || d.Link != 8 || len(d.Keys) != 10 {
			t.Fatalf("size %d: decoded %+v", ps, d)
		}
		if !bytes.Equal(Encode(d), p) {
			t.Fatalf("size %d: Encode(Decode(p)) != p", ps)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	mk := func() Buf {
		p := Buf(make([]byte, Size4K))
		p.Reset(TypeLeaf, 1)
		p.LeafInsertAt(0, 5, 50)
		p.Seal()
		return p
	}
	if _, err := Decode(mk()[:100]); err == nil {
		t.Error("accepted truncated page")
	}
	p := mk()
	p[HeaderSize+3] ^= 0x80
	if _, err := Decode(p); err == nil {
		t.Error("accepted corrupt CRC")
	}
	p = mk()
	p.SetType(TypeMeta)
	p.Seal()
	if _, err := Decode(p); err == nil {
		t.Error("accepted meta page type")
	}
	p = mk()
	p.SetCount(LeafCap(Size4K) + 1)
	p.Seal()
	if _, err := Decode(p); err == nil {
		t.Error("accepted overflowing count")
	}
	p = mk()
	p[5] = 1 // flags
	p.Seal()
	if _, err := Decode(p); err == nil {
		t.Error("accepted nonzero flags")
	}
	p = mk()
	p[Size4K-1] = 1 // padding
	p.Seal()
	if _, err := Decode(p); err == nil {
		t.Error("accepted nonzero padding")
	}
	p = mk()
	p.LeafInsertAt(1, 5, 51) // duplicate key
	p.Seal()
	if _, err := Decode(p); err == nil {
		t.Error("accepted non-ascending keys")
	}
}

func TestFileCreateOpenMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lpx")
	f, err := Create(path, Size8K, "paged-btree")
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p := Buf(make([]byte, Size8K))
	p.Reset(TypeLeaf, id)
	p.LeafInsertAt(0, 1, 2)
	if err := f.Write(id, p); err != nil {
		t.Fatal(err)
	}
	f.SetMeta(Meta{Kind: "paged-btree", Root: id, Height: 0, Count: 1})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.PageSize() != Size8K {
		t.Fatalf("page size %d", f2.PageSize())
	}
	m := f2.Meta()
	if m.Kind != "paged-btree" || m.Root != id || m.Count != 1 {
		t.Fatalf("meta %+v", m)
	}
	q := Buf(make([]byte, Size8K))
	if err := f2.Read(id, q); err != nil {
		t.Fatal(err)
	}
	if q.LeafKey(0) != 1 || q.LeafVal(0) != 2 {
		t.Fatalf("record lost: %d/%d", q.LeafKey(0), q.LeafVal(0))
	}
}

func TestFileFreeListReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lpx")
	f, err := Create(path, 0, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, _ := f.Allocate()
	b, _ := f.Allocate()
	// Freed pages must be written (they carry the free-list link).
	for _, id := range []uint64{a, b} {
		p := Buf(make([]byte, f.PageSize()))
		p.Reset(TypeLeaf, id)
		if err := f.Write(id, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(b); err != nil {
		t.Fatal(err)
	}
	n := f.NumPages()
	// LIFO reuse: b then a, with no file growth.
	if id, _ := f.Allocate(); id != b {
		t.Fatalf("first realloc = %d, want %d", id, b)
	}
	if id, _ := f.Allocate(); id != a {
		t.Fatalf("second realloc = %d, want %d", id, a)
	}
	if f.NumPages() != n {
		t.Fatalf("file grew during free-list reuse: %d -> %d", n, f.NumPages())
	}
	if err := f.Free(0); err == nil {
		t.Fatal("freed the meta page")
	}
}

func TestFileDetectsMisdirectedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lpx")
	f, err := Create(path, 0, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, _ := f.Allocate()
	b, _ := f.Allocate()
	p := Buf(make([]byte, f.PageSize()))
	p.Reset(TypeLeaf, a)
	if err := f.Write(a, p); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(b, p); err == nil {
		t.Fatal("Write accepted a page whose stored id differs from the target")
	}
	// Simulate a misdirected write at the OS layer: page a's sealed bytes
	// land at b's offset. The self-id check must catch the read.
	raw, _ := os.ReadFile(path)
	ps := f.PageSize()
	copy(raw[int(b)*ps:], raw[int(a)*ps:int(a+1)*ps])
	os.WriteFile(path, raw, 0o644)
	if err := f.Read(b, p); err == nil {
		t.Fatal("Read accepted a misdirected page")
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) string {
		path := filepath.Join(dir, name)
		f, err := Create(path, 0, "t")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	// Truncated meta.
	p1 := mk("a.lpx")
	os.Truncate(p1, 100)
	if _, err := Open(p1); err == nil {
		t.Error("opened truncated meta")
	}
	// Bit flip in meta.
	p2 := mk("b.lpx")
	raw, _ := os.ReadFile(p2)
	raw[60] ^= 0x10
	os.WriteFile(p2, raw, 0o644)
	if _, err := Open(p2); err == nil {
		t.Error("opened corrupted meta")
	}
	// Wrong kind at the index layer.
	p3 := mk("c.lpx")
	if _, err := OpenIndex(p3, KindBTree, Options{}); err == nil {
		t.Error("OpenIndex accepted a file of kind \"t\"")
	}
}
