package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// factStore holds every fact exported during one Run, keyed by the
// exporting analyzer so two analyzers' facts never collide even when
// they share a Go type. Object facts key on the types.Object itself —
// sound because the Loader gives every module package exactly one
// types.Package, so an object seen by the defining package's pass is
// the same object an importing package's pass resolves.
type factStore struct {
	obj map[objFactKey]Fact
}

type objFactKey struct {
	analyzer *Analyzer
	obj      types.Object
	typ      reflect.Type
}

func newFactStore() *factStore {
	return &factStore{obj: map[objFactKey]Fact{}}
}

// factType validates that fact is a non-nil pointer and returns its
// concrete type for keying.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("lint: fact %T must be a pointer type", fact))
	}
	return t
}

func (s *factStore) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	if obj == nil {
		panic("lint: ExportObjectFact on nil object")
	}
	s.obj[objFactKey{a, obj, factType(fact)}] = fact
}

func (s *factStore) importObject(a *Analyzer, obj types.Object, ptr Fact) bool {
	if obj == nil {
		return false
	}
	got, ok := s.obj[objFactKey{a, obj, factType(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
