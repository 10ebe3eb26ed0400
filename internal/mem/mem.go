// Package mem models the memory system behind the caches of the
// LEON2-like platform of the paper's Section 2: a flat big-endian RAM on
// an AHB-style burst bus, a single-entry write buffer (LEON's data cache
// is write-through), and the APB UART data register used as a console.
package mem

import "fmt"

// Physical memory map, following the LEON2 convention.
const (
	// RAMBase is the base address of main memory.
	RAMBase uint32 = 0x40000000
	// DefaultRAMBytes is the default main memory size.
	DefaultRAMBytes = 8 << 20
	// UARTData is the APB UART transmit-data register; stores to it are
	// captured as console output.
	UARTData uint32 = 0x80000100
	// UARTStatus is the APB UART status register; always reads "transmit
	// ready".
	UARTStatus uint32 = 0x80000104
	// uartStatusReady has the transmitter-ready bits set.
	uartStatusReady uint32 = 0x00000006
)

// Timing holds the bus/memory latency parameters used to price cache
// misses and write-buffer drains, in processor cycles.
type Timing struct {
	// LeadCycles is the latency before the first word of a burst arrives.
	LeadCycles int
	// WordCycles is the cost of each burst word after the first access
	// starts streaming.
	WordCycles int
	// WriteCycles is the time for the write buffer to retire one store.
	WriteCycles int
}

// DefaultTiming returns the calibrated SRAM timing of the platform.
func DefaultTiming() Timing {
	return Timing{LeadCycles: 3, WordCycles: 1, WriteCycles: 4}
}

// BurstReadCycles prices a line fill of the given number of words.
func (t Timing) BurstReadCycles(words int) int {
	return t.LeadCycles + words*t.WordCycles
}

// Memory is the flat RAM plus memory-mapped console. SPARC is big-endian;
// all multi-byte accesses are big-endian.
type Memory struct {
	data     []byte
	console  []byte
	pristine []byte // post-load image recorded by Snapshot, nil before
	// Write watermarks since the last Snapshot/RestoreSnapshot: the dirty
	// range is data[wlo:whi] (empty when wlo >= whi). They let a restore
	// copy only what a run actually wrote instead of the whole RAM.
	wlo, whi int
}

// New allocates a memory of the given size in bytes (rounded up to a
// multiple of 4).
func New(size int) *Memory {
	if size <= 0 {
		size = DefaultRAMBytes
	}
	size = (size + 3) &^ 3
	return &Memory{data: make([]byte, size), wlo: size}
}

// Size returns the RAM size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// RAM exposes the backing store directly (big-endian byte order, offset 0
// is RAMBase). The CPU's fast path uses it to service in-RAM aligned
// accesses without the per-access error plumbing; anything outside the
// slice (devices, faults) must go through the Read*/Write* methods.
func (m *Memory) RAM() []byte { return m.data }

// Console returns everything written to the UART data register so far.
func (m *Memory) Console() string { return string(m.console) }

// ResetConsole discards captured console output.
func (m *Memory) ResetConsole() { m.console = m.console[:0] }

// Snapshot records the current RAM contents as the pristine image a later
// RestoreSnapshot rewinds to, and arms the write watermarks. The platform
// snapshots once, right after program load, so repeated runs restore the
// loaded state by straight copy instead of re-allocating and re-loading
// an image.
func (m *Memory) Snapshot() {
	if m.pristine == nil {
		m.pristine = make([]byte, len(m.data))
	}
	copy(m.pristine, m.data)
	m.wlo, m.whi = len(m.data), 0
}

// Widen extends the dirty-range watermarks to cover [lo, hi). The CPU's
// fast path batches its direct RAM stores and reports them here on exit.
func (m *Memory) Widen(lo, hi int) {
	if lo < m.wlo {
		m.wlo = lo
	}
	if hi > m.whi {
		m.whi = hi
	}
}

// RestoreSnapshot rewinds RAM to the snapshotted image (a no-op without a
// prior Snapshot) and discards console output. Only the dirty range is
// copied back.
func (m *Memory) RestoreSnapshot() {
	if m.pristine != nil && m.whi > m.wlo {
		copy(m.data[m.wlo:m.whi], m.pristine[m.wlo:m.whi])
	}
	m.wlo, m.whi = len(m.data), 0
	m.console = m.console[:0]
}

// InRAM reports whether [addr, addr+n) lies entirely in RAM.
func (m *Memory) InRAM(addr uint32, n int) bool {
	off := int64(addr) - int64(RAMBase)
	return off >= 0 && off+int64(n) <= int64(len(m.data))
}

func (m *Memory) offset(addr uint32, n int) (int, error) {
	if !m.InRAM(addr, n) {
		return 0, fmt.Errorf("mem: access of %d bytes at %#08x outside RAM [%#08x,%#08x)",
			n, addr, RAMBase, RAMBase+uint32(len(m.data)))
	}
	return int(addr - RAMBase), nil
}

// Read32 loads a big-endian word. addr must be 4-byte aligned and in RAM,
// except for the UART status register.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if addr == UARTStatus {
		return uartStatusReady, nil
	}
	if addr&3 != 0 {
		return 0, fmt.Errorf("mem: misaligned word read at %#08x", addr)
	}
	off, err := m.offset(addr, 4)
	if err != nil {
		return 0, err
	}
	d := m.data[off : off+4 : off+4]
	return uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3]), nil
}

// Read16 loads a big-endian halfword. addr must be 2-byte aligned.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	if addr&1 != 0 {
		return 0, fmt.Errorf("mem: misaligned halfword read at %#08x", addr)
	}
	off, err := m.offset(addr, 2)
	if err != nil {
		return 0, err
	}
	return uint16(m.data[off])<<8 | uint16(m.data[off+1]), nil
}

// Read8 loads a byte.
func (m *Memory) Read8(addr uint32) (uint8, error) {
	off, err := m.offset(addr, 1)
	if err != nil {
		return 0, err
	}
	return m.data[off], nil
}

// Write32 stores a big-endian word. Stores to the UART data register are
// captured as console output (low byte).
func (m *Memory) Write32(addr uint32, v uint32) error {
	if addr == UARTData {
		m.console = append(m.console, byte(v))
		return nil
	}
	if addr&3 != 0 {
		return fmt.Errorf("mem: misaligned word write at %#08x", addr)
	}
	off, err := m.offset(addr, 4)
	if err != nil {
		return err
	}
	m.Widen(off, off+4)
	d := m.data[off : off+4 : off+4]
	d[0], d[1], d[2], d[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return nil
}

// Write16 stores a big-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) error {
	if addr&1 != 0 {
		return fmt.Errorf("mem: misaligned halfword write at %#08x", addr)
	}
	off, err := m.offset(addr, 2)
	if err != nil {
		return err
	}
	m.Widen(off, off+2)
	m.data[off] = byte(v >> 8)
	m.data[off+1] = byte(v)
	return nil
}

// Write8 stores a byte. Stores to the UART data register are captured as
// console output.
func (m *Memory) Write8(addr uint32, v uint8) error {
	if addr >= UARTData && addr < UARTData+4 {
		m.console = append(m.console, v)
		return nil
	}
	off, err := m.offset(addr, 1)
	if err != nil {
		return err
	}
	m.Widen(off, off+1)
	m.data[off] = v
	return nil
}

// LoadImage copies a byte image into RAM starting at addr.
func (m *Memory) LoadImage(addr uint32, image []byte) error {
	off, err := m.offset(addr, len(image))
	if err != nil {
		return err
	}
	m.Widen(off, off+len(image))
	copy(m.data[off:], image)
	return nil
}

// WriteBuffer models LEON's single-entry store buffer: a store that
// arrives while the previous one is still draining stalls the pipeline
// until the buffer frees.
type WriteBuffer struct {
	timing Timing
	freeAt uint64
	stalls uint64
	stores uint64
}

// NewWriteBuffer creates a write buffer with the given drain timing.
func NewWriteBuffer(t Timing) *WriteBuffer {
	return &WriteBuffer{timing: t}
}

// Store records a store issued at cycle now and returns the stall cycles
// the pipeline incurs waiting for the buffer.
func (w *WriteBuffer) Store(now uint64) (stall uint64) {
	w.stores++
	if now < w.freeAt {
		stall = w.freeAt - now
		w.stalls += stall
		now = w.freeAt
	}
	w.freeAt = now + uint64(w.timing.WriteCycles)
	return stall
}

// Stalls returns the total stall cycles charged so far.
func (w *WriteBuffer) Stalls() uint64 { return w.stalls }

// Stores returns the number of stores the buffer has accepted.
func (w *WriteBuffer) Stores() uint64 { return w.stores }

// Reset clears the buffer state and counters.
func (w *WriteBuffer) Reset() { w.freeAt, w.stalls, w.stores = 0, 0, 0 }
