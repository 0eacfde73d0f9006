(** Flat simulated memory shared by all threads, with a static region for
    globals, a first-fit heap, and per-thread stacks carved from the top.
    The first page is unmapped so null dereferences trap.

    The paper assumes memory is ECC-protected and outside the fault model
    (§III-A); the expanded taxonomy deliberately breaks that assumption:
    {!Machine}'s [Mem_flip] fault kind flips bits in this memory directly
    (bypassing any undo log), to measure what ELZAR's register-level
    replication cannot catch.

    A fresh memory reads zero everywhere and costs the host only the pages
    that are stored to.  Stored-to pages are journaled from {!create} on,
    so the journaled pages plus the allocator metadata are a complete
    image: that page list is the one snapshot format. *)

type t

(** Access outside mapped memory. *)
exception Fault of int64

exception Out_of_memory

val page : int

(** A 64 MiB memory that reads zero everywhere. *)
val create : unit -> t

(** Bytes of address space, the unmapped first page included. *)
val size : t -> int

(** End of the heap: stacks live at and above it. *)
val heap_limit : t -> int

val align16 : int -> int

(** [read m ~width addr] returns the value zero-extended to 64 bits;
    [width] is 1, 2, 4 or 8.
    @raise Fault when [addr, addr+width) is not mapped. *)
val read : t -> width:int -> int64 -> int64

val write : t -> width:int -> int64 -> int64 -> unit

(** [read_bytes m addr len] is the [len] bytes at [addr].
    @raise Fault when [len] is negative or [addr, addr+max len 1) is not
    mapped. *)
val read_bytes : t -> int64 -> int -> string

(** Globals region, allocated once at load time. *)
val alloc_static : t -> int -> int64

val blit_string : t -> string -> int64 -> unit

(** Sets up the heap between the globals and the stack reserve. *)
val heap_init : t -> stack_reserve:int -> unit

(** First-fit allocation of at least [n] bytes, 16-byte aligned.
    @raise Out_of_memory when no free chunk can hold [n] bytes. *)
val malloc : t -> int -> int64

val free : t -> int64 -> int -> unit
val alloc_stack : t -> int -> int64

(** Allocator metadata captured alongside a snapshot image. *)
type meta

val meta : t -> meta

(** Copies of every page stored to since {!create} (or applied by
    {!of_pages}), sorted by page index.  Every other page is zero, so the
    list is a complete image. *)
val journal_capture : t -> (int * Bytes.t) array

(** [of_pages pages meta] is a fresh memory holding [pages] (as returned by
    {!journal_capture}) over zero, with allocator state [meta]. *)
val of_pages : (int * Bytes.t) array -> meta -> t
