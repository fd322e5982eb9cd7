package array

import (
	"context"
	"errors"
	"testing"

	"scisparql/internal/spd"
)

// failSource fails every read, for error-path coverage.
type failSource struct{}

func (failSource) ReadChunksCtx(context.Context, int64, []spd.Run, func(int, []byte) error) error {
	return errors.New("backend down")
}

func (failSource) AggregateWhole(int64) (*AggState, bool, error) {
	return nil, false, errors.New("backend down")
}

// shortSource returns without emitting the chunks asked for.
type shortSource struct{}

func (shortSource) ReadChunksCtx(context.Context, int64, []spd.Run, func(int, []byte) error) error {
	return nil
}

func (shortSource) AggregateWhole(int64) (*AggState, bool, error) { return nil, false, nil }

func TestProxyReadErrorPropagates(t *testing.T) {
	a, err := NewProxied(NewProxy(failSource{}, 1, 4), Float, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.At(3); err == nil {
		t.Fatal("expected read error")
	}
	if _, err := a.Materialize(); err == nil {
		t.Fatal("expected materialize error")
	}
	if _, err := a.Sum(); err == nil {
		t.Fatal("expected aggregate error")
	}
	if _, err := BinOpScalar(OpAdd, a, IntN(1), false); err == nil {
		t.Fatal("expected binop error")
	}
	if _, err := Map(func([]Number) (Number, error) { return IntN(0), nil }, a); err == nil {
		t.Fatal("expected map error")
	}
	if _, err := AppendMarshal(nil, a); err == nil {
		t.Fatal("expected marshal error")
	}
}

func TestProxyMissingChunkInResponse(t *testing.T) {
	a, err := NewProxied(NewProxy(shortSource{}, 1, 4), Float, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.At(0); err == nil {
		t.Fatal("expected missing-chunk error")
	}
}

func TestAggregateWholeErrorPropagates(t *testing.T) {
	a, _ := NewProxied(NewProxy(failSource{}, 1, 4), Float, 16)
	if _, err := a.Aggregate(AggSum); err == nil {
		t.Fatal("expected error")
	}
}

func TestEncodeProxiedBaseFails(t *testing.T) {
	a, _ := NewProxied(NewProxy(shortSource{}, 1, 4), Float, 16)
	if err := EncodeChunks(a, 4, func(int, []byte) error { return nil }); err == nil {
		t.Fatal("expected error")
	}
	if err := DecodeInto(a.Base, 0, make([]byte, 8)); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeIntoBoundsCheck(t *testing.T) {
	a := NewFloat(2)
	if err := DecodeInto(a.Base, 1, make([]byte, 16)); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestPrefetchChunksPublicAPI(t *testing.T) {
	src := &fakeSource{nelems: 100, chunkElems: 10}
	p := NewProxy(src, 1, 10)
	if err := p.PrefetchChunks([]int{5, 1, 3, 1}); err != nil {
		t.Fatal(err)
	}
	if p.CachedChunks() != 3 {
		t.Fatalf("cached %d", p.CachedChunks())
	}
	// Re-prefetching cached chunks issues no further reads.
	calls := len(src.calls)
	if err := p.PrefetchChunks([]int{1, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if len(src.calls) != calls {
		t.Fatal("cached chunks were re-fetched")
	}
}

func TestPrefetchOnResidentIsNoop(t *testing.T) {
	a := NewFloat(10)
	if err := a.Prefetch(); err != nil {
		t.Fatal(err)
	}
}

func TestEachErrorPropagation(t *testing.T) {
	a, _ := FromFloats([]float64{1, 2, 3}, 3)
	sentinel := errors.New("stop here")
	err := a.Each(func(idx []int, v Number) error {
		if v.Float() == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("got %v", err)
	}
}

func TestNumberStringAndConversions(t *testing.T) {
	if IntN(5).String() != "5" || FloatN(2.5).String() != "2.5" {
		t.Fatal("render")
	}
	if FloatN(2.9).Intval() != 2 || IntN(3).Float() != 3 {
		t.Fatal("conversion")
	}
}
