package metrics

import (
	"fmt"
	"reflect"
)

// mergeInto folds src into dst (both pointers to the same struct type)
// by walking the type with reflection: histograms merge bucket-wise,
// counters and plain integers add, gauges take the maximum, slices and
// maps merge element-wise (growing dst as needed). Walking the type
// instead of naming fields means a metric added anywhere under Snapshot
// is merged automatically — it cannot be silently dropped.
func mergeInto(dst, src any) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(src).Elem()
	mergeValue(dv, sv)
}

var (
	histType    = reflect.TypeOf(Histogram{})
	counterType = reflect.TypeOf(Counter(0))
	gaugeType   = reflect.TypeOf(Gauge(0))
)

// mergeValue merges src into the settable value dst.
func mergeValue(dst, src reflect.Value) {
	switch dst.Type() {
	case histType:
		dst.Addr().Interface().(*Histogram).merge(src.Addr().Interface().(*Histogram))
		return
	case gaugeType:
		if src.Int() > dst.Int() {
			dst.Set(src)
		}
		return
	}

	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			mergeValue(dst.Field(i), src.Field(i))
		}

	case reflect.Slice:
		for i := 0; i < src.Len(); i++ {
			if i >= dst.Len() {
				dst.Set(reflect.Append(dst, reflect.Zero(dst.Type().Elem())))
			}
			mergeValue(dst.Index(i), src.Index(i))
		}

	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			mergeValue(dst.Index(i), src.Index(i))
		}

	case reflect.Map:
		if src.Len() == 0 {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.MakeMap(dst.Type()))
		}
		for _, k := range src.MapKeys() {
			sv := src.MapIndex(k)
			dv := dst.MapIndex(k)
			if !dv.IsValid() || (dv.Kind() == reflect.Pointer && dv.IsNil()) {
				dv = reflect.New(dst.Type().Elem()).Elem()
				dst.SetMapIndex(k, dv)
			}
			// Map values are not addressable; merge through a copy and
			// store back.
			tmp := reflect.New(dst.Type().Elem()).Elem()
			tmp.Set(dst.MapIndex(k))
			mergeValue(tmp, sv)
			dst.SetMapIndex(k, tmp)
		}

	case reflect.Pointer:
		if src.IsNil() {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		mergeValue(dst.Elem(), src.Elem())

	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Counter and every plain integer (int64 totals, sim.Time) add.
		dst.SetInt(dst.Int() + src.Int())

	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())

	case reflect.String:
		// Shape metadata (message class names): first writer wins.
		if dst.String() == "" {
			dst.Set(src)
		}

	case reflect.Bool:
		if src.Bool() {
			dst.Set(src)
		}

	default:
		panic(fmt.Sprintf("metrics: cannot merge field of kind %v", dst.Kind()))
	}
}

// EachHistogram walks every histogram reachable from s in deterministic
// order, calling fn with a stable scope ("node3" or "net:Lock"), the
// metric's JSON name, and the histogram. The walk is reflection-driven
// over NodeMetrics and NetMetrics, so new histogram fields reach every
// consumer (the report writers, the Prometheus exporter, the backend
// equivalence gate) without being named anywhere.
func (s *Snapshot) EachHistogram(fn func(scope, name string, h *Histogram)) {
	for i := range s.Nodes {
		scope := fmt.Sprintf("node%d", i)
		forEachHistField(&s.Nodes[i], func(name string, h *Histogram) {
			fn(scope, name, h)
		})
	}
	nv := reflect.ValueOf(&s.Net).Elem()
	nt := nv.Type()
	for f := 0; f < nt.NumField(); f++ {
		name := jsonName(nt.Field(f))
		fv := nv.Field(f)
		for c := 0; c < fv.Len(); c++ {
			class := fmt.Sprintf("class%d", c)
			if c < len(s.MsgClasses) {
				class = s.MsgClasses[c]
			}
			fn("net:"+class, name, fv.Index(c).Addr().Interface().(*Histogram))
		}
	}
}

// EachCounter walks every top-level Counter of the snapshot in field
// order, keyed by JSON name.
func (s *Snapshot) EachCounter(fn func(name string, c *Counter)) {
	sv := reflect.ValueOf(s).Elem()
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		if sv.Field(i).Type() == counterType {
			fn(jsonName(st.Field(i)), sv.Field(i).Addr().Interface().(*Counter))
		}
	}
}

// CounterValues returns every top-level Counter by JSON name: what the
// sim-vs-real equivalence gates compare.
func (s *Snapshot) CounterValues() map[string]int64 {
	out := make(map[string]int64)
	s.EachCounter(func(name string, c *Counter) { out[name] = int64(*c) })
	return out
}

// forEachHistField visits the Histogram fields of a struct pointer.
func forEachHistField(ptr any, fn func(name string, h *Histogram)) {
	v := reflect.ValueOf(ptr).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if v.Field(i).Type() == histType {
			fn(jsonName(t.Field(i)), v.Field(i).Addr().Interface().(*Histogram))
		}
	}
}

// jsonName reports the field's JSON key (tag name, or Go name untagged).
func jsonName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	for i := 0; i < len(tag); i++ {
		if tag[i] == ',' {
			tag = tag[:i]
			break
		}
	}
	if tag != "" && tag != "-" {
		return tag
	}
	return f.Name
}
