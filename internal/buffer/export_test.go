package buffer

import "react/internal/circuit"

// Cap exposes the buffer's capacitor to the external differential tests.
func (s *Static) Cap() *circuit.Capacitor { return &s.cap }
