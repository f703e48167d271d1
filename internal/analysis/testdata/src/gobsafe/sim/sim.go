// Package sim exercises gobsafe's typed-payload rule: a shared encoder over
// an interface or type parameter hides every checkpoint struct it is handed
// from the field walk, so the call itself is a diagnostic, while a gob call
// typed on the concrete checkpoint keeps the walk.
package sim

import (
	"bytes"
	"encoding/gob"
)

// Checkpoint is encoded through its typed method, so its fields are
// audited.
type Checkpoint struct {
	Next   int
	hidden int // want `unexported field Checkpoint.hidden reaches encoding/gob`
}

// Encode is typed on the concrete checkpoint.
func (ck *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ck)
	return buf.Bytes(), err
}

// encodeAny hides whatever it is handed.
func encodeAny(v any) error {
	return gob.NewEncoder(new(bytes.Buffer)).Encode(v) // want `gob payload of type any hides the concrete type`
}

// encodeGeneric hides its type argument the same way.
func encodeGeneric[C any](ck C) error {
	return gob.NewEncoder(new(bytes.Buffer)).Encode(ck) // want `gob payload of type C hides the concrete type`
}
