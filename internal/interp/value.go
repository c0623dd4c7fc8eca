package interp

import (
	"fmt"
	"strconv"
	"strings"

	"finishrepair/internal/lang/ast"
)

// Kind tags runtime values.
type Kind int

// Value kinds.
const (
	KInt Kind = iota
	KFloat
	KBool
	KString
	KArray
	KVoid
)

// Array is a heap-allocated HJ-lite array. Base is the first shadow
// location ID of its elements (element i lives at Base+i); Base is 0 when
// the run is not instrumented.
type Array struct {
	Base  uint64
	Elems []Value
}

// Value is a tagged HJ-lite runtime value.
type Value struct {
	K Kind
	I int64 // int payload; bools use 0/1
	F float64
	S string
	A *Array
}

// Convenience constructors.
func IntV(v int64) Value     { return Value{K: KInt, I: v} }
func FloatV(v float64) Value { return Value{K: KFloat, F: v} }
func BoolV(v bool) Value {
	if v {
		return Value{K: KBool, I: 1}
	}
	return Value{K: KBool}
}
func StringV(s string) Value { return Value{K: KString, S: s} }
func VoidV() Value           { return Value{K: KVoid} }

// zeroValue is the value of a declared variable of type t before its
// first assignment.
func zeroValue(t ast.Type) Value {
	switch tt := t.(type) {
	case *ast.PrimType:
		switch tt.Kind {
		case ast.Int:
			return IntV(0)
		case ast.Float:
			return FloatV(0)
		case ast.Bool:
			return BoolV(false)
		default:
			return StringV("")
		}
	case *ast.ArrayType:
		return Value{K: KArray}
	}
	return VoidV()
}

// Bool reports the truth of a KBool value.
func (v Value) Bool() bool { return v.I != 0 }

// String formats the value the way print does.
func (v Value) String() string {
	switch v.K {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		return s
	case KBool:
		return strconv.FormatBool(v.I != 0)
	case KString:
		return v.S
	case KArray:
		if v.A == nil {
			return "nil"
		}
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range v.A.Elems {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "void"
	}
}

// Equal compares values of the same primitive kind; arrays compare by
// identity.
func (v Value) Equal(o Value) bool {
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KInt, KBool:
		return v.I == o.I
	case KFloat:
		return v.F == o.F
	case KString:
		return v.S == o.S
	case KArray:
		return v.A == o.A
	default:
		return true
	}
}

// RuntimeError is an HJ-lite runtime fault (index out of range, division
// by zero, nil array). Budget trips and cancellations are NOT runtime
// errors; they surface as the guard package's typed errors.
type RuntimeError struct {
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

func throwf(format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...)})
}
