// Package loader lays out an assembled program in the simulated address
// space: text, data, heap, and one downward-growing stack per target core.
//
// Unless a size is given, the memory is sized from the program: the heap
// starts at the page-aligned data end and sbrk may grow it DefaultHeapSize
// bytes; the heap end is rounded up to a multiple of the stack size, and
// the stacks sit above it, one per core, core 0 highest. The rounding keeps
// every stack address's low bits, and so its L1 set and L2 bank and set,
// the same as in any other memory size that is a multiple of the stack
// size. With an explicit size the heap may grow up to the lowest stack.
package loader

import (
	"fmt"

	"slacksim/internal/asm"
	"slacksim/internal/mem"
)

// Layout constants.
const (
	// DefaultHeapSize is how far sbrk may grow the heap past the data end
	// in a memory sized from the program.
	DefaultHeapSize = 8 << 20
	// DefaultStackSize is the per-core stack size.
	DefaultStackSize = 1 << 20
	// guard is the unmapped low region that catches null dereferences.
	guard = 0x1000
)

// Image is a loaded program: memory plus the address-space map.
type Image struct {
	Mem       *mem.Memory
	Prog      *asm.Program
	Entry     uint64
	HeapStart uint64 // first heap address (sbrk starts here)
	HeapLimit uint64 // heap may not grow past this
	StackSize uint64
	NumCores  int
	memSize   uint64
}

// Config controls loading.
type Config struct {
	MemSize   uint64 // 0 sizes the memory from the program (see the package comment)
	StackSize uint64 // defaults to DefaultStackSize
	NumCores  int    // number of target cores (stacks); must be >= 1
}

// Load writes prog into a fresh memory and computes the address-space map.
func Load(prog *asm.Program, cfg Config) (*Image, error) {
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.NumCores < 1 {
		return nil, fmt.Errorf("loader: NumCores must be >= 1, got %d", cfg.NumCores)
	}
	if prog.TextBase < guard {
		return nil, fmt.Errorf("loader: text base %#x overlaps the null guard page", prog.TextBase)
	}
	heapStart := (prog.DataEnd() + 0xFFF) &^ 0xFFF
	stackBytes := uint64(cfg.NumCores) * cfg.StackSize
	heapLimit := cfg.MemSize - stackBytes
	if cfg.MemSize == 0 {
		heapLimit = heapStart + DefaultHeapSize
		cfg.MemSize = (heapLimit+cfg.StackSize-1)/cfg.StackSize*cfg.StackSize + stackBytes
	}
	if heapStart+stackBytes >= cfg.MemSize {
		return nil, fmt.Errorf("loader: memory too small: heap at %#x, %d stacks of %#x, size %#x",
			heapStart, cfg.NumCores, cfg.StackSize, cfg.MemSize)
	}
	m := mem.New(cfg.MemSize)
	if err := m.WriteBytes(prog.TextBase, prog.TextBytes()); err != nil {
		return nil, fmt.Errorf("loader: text: %w", err)
	}
	if err := m.WriteBytes(prog.DataBase, prog.Data); err != nil {
		return nil, fmt.Errorf("loader: data: %w", err)
	}
	return &Image{
		Mem:       m,
		Prog:      prog,
		Entry:     prog.Entry,
		HeapStart: heapStart,
		HeapLimit: heapLimit,
		StackSize: cfg.StackSize,
		NumCores:  cfg.NumCores,
		memSize:   cfg.MemSize,
	}, nil
}

// StackTop returns the initial stack pointer for the given core. Stacks are
// carved from the top of memory, core 0 highest, and grow downward. The top
// 16 bytes are left unused as a red zone.
func (im *Image) StackTop(core int) uint64 {
	if core < 0 || core >= im.NumCores {
		panic(fmt.Sprintf("loader: StackTop(%d) with %d cores", core, im.NumCores))
	}
	return im.memSize - uint64(core)*im.StackSize - 16
}

// Symbol returns the address of a label defined by the program.
func (im *Image) Symbol(name string) (uint64, error) {
	a, ok := im.Prog.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("loader: undefined symbol %q", name)
	}
	return a, nil
}
