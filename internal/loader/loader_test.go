package loader_test

import (
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/isa"
	"slacksim/internal/loader"
	"slacksim/internal/sysemu"
)

func testProg(t *testing.T) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(`
main:
    li r8, 7
    syscall 0
.data
.align 8
x: .dword 0x1122334455667788
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadLayout(t *testing.T) {
	prog := testProg(t)
	im, err := loader.Load(prog, loader.Config{MemSize: 8 << 20, StackSize: 64 << 10, NumCores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Text readable at the entry.
	w, ok := im.Mem.LoadWord(im.Entry)
	if !ok {
		t.Fatal("entry unreadable")
	}
	if in := isa.Decode(w); in.Op != isa.OpLI || in.Imm != 7 {
		t.Fatalf("first instruction = %v", in)
	}
	// Data placed and readable via symbol lookup.
	xa, err := im.Symbol("x")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := im.Mem.LoadWord(xa); v != 0x1122334455667788 {
		t.Fatalf("data word = %#x", v)
	}
	// Heap begins past the data, page aligned, below the stacks.
	if im.HeapStart <= prog.DataEnd() || im.HeapStart%0x1000 != 0 {
		t.Errorf("heap start %#x", im.HeapStart)
	}
	if im.HeapLimit != 8<<20-4*(64<<10) {
		t.Errorf("heap limit %#x", im.HeapLimit)
	}
}

func TestStacksDisjointAndAligned(t *testing.T) {
	prog := testProg(t)
	im, err := loader.Load(prog, loader.Config{MemSize: 8 << 20, StackSize: 64 << 10, NumCores: 8})
	if err != nil {
		t.Fatal(err)
	}
	tops := map[uint64]bool{}
	for c := 0; c < 8; c++ {
		top := im.StackTop(c)
		if top%8 != 0 {
			t.Errorf("stack %d top %#x misaligned", c, top)
		}
		if tops[top] {
			t.Errorf("stack %d top %#x reused", c, top)
		}
		tops[top] = true
		if c > 0 && im.StackTop(c-1)-top != 64<<10 {
			t.Errorf("stacks %d/%d not %#x apart", c-1, c, 64<<10)
		}
		// A deep push must stay above the next stack's top.
		if top-(60<<10) <= im.HeapLimit && c == 7 {
			t.Errorf("lowest stack dips into the heap")
		}
	}
}

func TestLoadErrors(t *testing.T) {
	prog := testProg(t)
	if _, err := loader.Load(prog, loader.Config{NumCores: 0}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := loader.Load(prog, loader.Config{MemSize: 1 << 16, StackSize: 1 << 20, NumCores: 8}); err == nil {
		t.Error("stacks larger than memory accepted")
	}
	bad, err := asm.Assemble("main:\n nop\n", asm.Options{TextBase: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load(bad, loader.Config{NumCores: 1}); err == nil {
		t.Error("text inside the null guard accepted")
	}
}

func TestSymbolLookupError(t *testing.T) {
	im, err := loader.Load(testProg(t), loader.Config{NumCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.Symbol("nonexistent"); err == nil {
		t.Error("missing symbol lookup succeeded")
	}
}

func TestStackTopPanicsOutOfRange(t *testing.T) {
	im, err := loader.Load(testProg(t), loader.Config{NumCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range core")
		}
	}()
	im.StackTop(2)
}

// bigDataProg has a data section that ends off both page and stack-size
// alignment, so the derived size's rounding is exercised.
func bigDataProg(t *testing.T) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(`
main:
    syscall 0
.data
.align 8
buf: .space 3000001
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDerivedMemSize(t *testing.T) {
	for _, prog := range []*asm.Program{testProg(t), bigDataProg(t)} {
		for _, cores := range []int{1, 8} {
			im, err := loader.Load(prog, loader.Config{NumCores: cores})
			if err != nil {
				t.Fatal(err)
			}
			size := im.Mem.Size()
			if size%loader.DefaultStackSize != 0 {
				t.Errorf("data end %#x, %d cores: size %#x not a stack-size multiple", prog.DataEnd(), cores, size)
			}
			if min := prog.DataEnd() + loader.DefaultHeapSize + uint64(cores)*loader.DefaultStackSize; size < min {
				t.Errorf("data end %#x, %d cores: size %#x < %#x", prog.DataEnd(), cores, size, min)
			}
			if im.HeapLimit != im.HeapStart+loader.DefaultHeapSize {
				t.Errorf("heap [%#x, %#x) is not DefaultHeapSize long", im.HeapStart, im.HeapLimit)
			}
			if low := im.StackTop(cores-1) - im.StackSize + 16; low < im.HeapLimit {
				t.Errorf("lowest stack %#x dips into the heap (limit %#x)", low, im.HeapLimit)
			}
			// Stack addresses keep the low bits (cache set, L2 bank) they
			// had in the flat 256 MiB layout, where core c's top was
			// 256 MiB - c*StackSize - 16 (TestExplicitMemSizeHonoured).
			for c := 0; c < cores; c++ {
				old := uint64(256<<20) - uint64(c)*im.StackSize - 16
				if got, want := im.StackTop(c)%im.StackSize, old%im.StackSize; got != want {
					t.Errorf("core %d stack top low bits %#x, 256 MiB layout has %#x", c, got, want)
				}
			}
		}
	}
}

func TestExplicitMemSizeHonoured(t *testing.T) {
	im, err := loader.Load(testProg(t), loader.Config{MemSize: 256 << 20, NumCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if im.Mem.Size() != 256<<20 {
		t.Errorf("size %#x, want %#x", im.Mem.Size(), 256<<20)
	}
	if im.StackTop(1) != 256<<20-loader.DefaultStackSize-16 || im.HeapLimit != 256<<20-2*loader.DefaultStackSize {
		t.Errorf("core 1 stack top %#x, heap limit %#x", im.StackTop(1), im.HeapLimit)
	}
}

// TestDerivedHeapSbrk: in a derived image sbrk can take exactly
// DefaultHeapSize bytes; the next allocation fails with -1.
func TestDerivedHeapSbrk(t *testing.T) {
	im, err := loader.Load(bigDataProg(t), loader.Config{NumCores: 4})
	if err != nil {
		t.Fatal(err)
	}
	k := sysemu.NewKernel(sysemu.KernelImage(im), 4, 4)
	if r := k.Syscall(0, 1, sysemu.SysSbrk, [4]int64{loader.DefaultHeapSize}); r.Ret != int64(im.HeapStart) {
		t.Fatalf("sbrk(DefaultHeapSize) = %#x, want heap start %#x", r.Ret, im.HeapStart)
	}
	if r := k.Syscall(0, 2, sysemu.SysSbrk, [4]int64{8}); r.Ret != -1 {
		t.Fatalf("sbrk past the heap limit = %#x, want -1", r.Ret)
	}
}
