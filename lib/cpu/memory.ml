(** Flat simulated memory with a first-fit allocator.

    One address space is shared by all simulated threads (the memory
    subsystem is assumed ECC-protected and is outside the fault model,
    paper §III-A).  The first page is kept unmapped so that null and
    near-null dereferences trap, which the fault-injection campaign
    classifies as OS-detected crashes.

    The image is a private mapping of [/dev/zero], so the host supplies a
    zero page on first touch and a machine pays only for the pages it
    uses.  Every store marks its page in a dirty-page journal that is on
    from [create]: every page outside the journal is still zero, so the
    journaled pages alone are a complete image. *)

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : bigstring;
  mutable static_brk : int;  (** globals region bump pointer *)
  mutable heap_base : int;
  mutable heap_limit : int;  (** heap may not grow past this *)
  mutable free_list : (int * int) list;  (** (addr, len), address-ordered *)
  mutable stack_top : int;
  journal : Bytes.t;  (** dirty-page bitset, one bit per page, never cleared *)
}

exception Fault of int64  (** access outside mapped memory *)

let page = 4096
let page_bits = 12
let mem_size = 1 lsl 26
let npages = mem_size lsr page_bits

(* The bigstring primitives access memory in host byte order; simulated
   memory is little-endian on every host. *)
external get16 : bigstring -> int -> int = "%caml_bigstring_get16"
external get32 : bigstring -> int -> int32 = "%caml_bigstring_get32"
external get64 : bigstring -> int -> int64 = "%caml_bigstring_get64"
external set16 : bigstring -> int -> int -> unit = "%caml_bigstring_set16"
external set32 : bigstring -> int -> int32 -> unit = "%caml_bigstring_set32"
external set64 : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* A mapping's size is invisible to the GC, which may otherwise leave
   thousands of dropped 64 MiB mappings live in a loop that allocates
   little else.  Counting live mappings and forcing a collection at a
   fixed cap keeps the address space and fd use bounded. *)
let live_mappings = Atomic.make 0
let max_live_mappings = 64

let map_zero () : bigstring =
  if Atomic.get live_mappings >= max_live_mappings then Gc.full_major ();
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let data =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| mem_size |]))
  in
  Atomic.incr live_mappings;
  Gc.finalise_last (fun () -> Atomic.decr live_mappings) data;
  data

let create () =
  {
    data = map_zero ();
    static_brk = page;
    heap_base = 0;
    heap_limit = mem_size;
    free_list = [];
    stack_top = mem_size;
    journal = Bytes.make ((npages + 7) / 8) '\000';
  }

let size (_ : t) = mem_size
let heap_limit (m : t) = m.heap_limit
let align16 n = (n + 15) land lnot 15

(* [a > mem_size - w], not [a + w > mem_size], which overflows for an
   address near [max_int] *)
let check (addr : int64) (w : int) =
  let a = Int64.to_int addr in
  if addr < Int64.of_int page || a > mem_size - w || a < 0 then raise (Fault addr)

let read (m : t) ~(width : int) (addr : int64) : int64 =
  check addr width;
  let a = Int64.to_int addr in
  match width with
  | 1 -> Int64.of_int (Char.code (Bigarray.Array1.get m.data a))
  | 2 ->
      let v = get16 m.data a in
      Int64.of_int (if Sys.big_endian then swap16 v else v)
  | 4 ->
      let v = get32 m.data a in
      Int64.logand (Int64.of_int32 (if Sys.big_endian then swap32 v else v)) 0xFFFFFFFFL
  | 8 ->
      let v = get64 m.data a in
      if Sys.big_endian then swap64 v else v
  | _ -> invalid_arg "Memory.read: bad width"

(* Marks the pages overlapped by [a, a+w), w >= 1.  The caller has
   already bounded the range, so the page indices are in range. *)
let mark_dirty (m : t) (a : int) (w : int) =
  for p = a lsr page_bits to (a + w - 1) lsr page_bits do
    Bytes.set_uint8 m.journal (p lsr 3)
      (Bytes.get_uint8 m.journal (p lsr 3) lor (1 lsl (p land 7)))
  done

let write (m : t) ~(width : int) (addr : int64) (v : int64) : unit =
  check addr width;
  let a = Int64.to_int addr in
  mark_dirty m a width;
  match width with
  | 1 -> Bigarray.Array1.set m.data a (Char.unsafe_chr (Int64.to_int v land 0xFF))
  | 2 ->
      let v = Int64.to_int v land 0xFFFF in
      set16 m.data a (if Sys.big_endian then swap16 v else v)
  | 4 ->
      let v = Int64.to_int32 v in
      set32 m.data a (if Sys.big_endian then swap32 v else v)
  | 8 -> set64 m.data a (if Sys.big_endian then swap64 v else v)
  | _ -> invalid_arg "Memory.write: bad width"

(* [len] bytes at [addr]; even an empty read needs [addr] mapped. *)
let read_bytes (m : t) (addr : int64) (len : int) : string =
  check addr (max len 1);
  if len < 0 then raise (Fault addr);
  let a = Int64.to_int addr in
  String.init len (fun i -> Bigarray.Array1.get m.data (a + i))

(* ---- static data (globals), allocated once at load time ---- *)

let alloc_static (m : t) (n : int) : int64 =
  let addr = m.static_brk in
  m.static_brk <- align16 (m.static_brk + n);
  if m.static_brk >= mem_size then failwith "Memory.alloc_static: out of memory";
  m.heap_base <- m.static_brk;
  Int64.of_int addr

let blit_string (m : t) (s : string) (addr : int64) =
  let len = String.length s in
  check addr len;
  let a = Int64.to_int addr in
  if len > 0 then mark_dirty m a len;
  String.iteri (fun i c -> Bigarray.Array1.set m.data (a + i) c) s

(* ---- heap ---- *)

exception Out_of_memory

let heap_init (m : t) ~(stack_reserve : int) =
  if m.heap_base = 0 then m.heap_base <- m.static_brk;
  m.heap_limit <- mem_size - stack_reserve;
  if m.heap_limit <= m.heap_base then failwith "Memory.heap_init: globals leave no heap";
  m.free_list <- [ (m.heap_base, m.heap_limit - m.heap_base) ]

let malloc (m : t) (n : int) : int64 =
  (* bounded before [align16], which would overflow near [max_int] *)
  if n > m.heap_limit - m.heap_base then raise Out_of_memory;
  let n = align16 (max n 16) in
  let rec take acc = function
    | [] -> raise Out_of_memory
    | (addr, len) :: rest when len >= n ->
        let remainder = if len > n then [ (addr + n, len - n) ] else [] in
        m.free_list <- List.rev_append acc (remainder @ rest);
        Int64.of_int addr
    | chunk :: rest -> take (chunk :: acc) rest
  in
  take [] m.free_list

let free (m : t) (addr : int64) (len : int) : unit =
  let len = align16 (max len 16) in
  let rec insert = function
    | [] -> [ (Int64.to_int addr, len) ]
    | (a, l) :: rest when Int64.to_int addr < a -> (Int64.to_int addr, len) :: (a, l) :: rest
    | chunk :: rest -> chunk :: insert rest
  in
  m.free_list <- insert m.free_list

(* ---- per-thread stacks, carved from the top of memory ---- *)

let alloc_stack (m : t) (n : int) : int64 =
  m.stack_top <- m.stack_top - align16 n;
  if m.stack_top < m.heap_limit then failwith "Memory.alloc_stack: out of stack space";
  Int64.of_int m.stack_top

(* ---- snapshot support (campaign fast-forward) ---- *)

(* Allocator metadata that travels with a snapshot. *)
type meta = {
  mt_static_brk : int;
  mt_heap_base : int;
  mt_heap_limit : int;
  mt_free_list : (int * int) list;
  mt_stack_top : int;
}

let meta (m : t) : meta =
  {
    mt_static_brk = m.static_brk;
    mt_heap_base = m.heap_base;
    mt_heap_limit = m.heap_limit;
    mt_free_list = m.free_list;
    mt_stack_top = m.stack_top;
  }

(* Copies of all journaled pages, sorted by page.  Both sides of the copy
   are in host byte order, so the words need no swap. *)
let journal_capture (m : t) : (int * Bytes.t) array =
  let pages = ref [] in
  for p = npages - 1 downto 0 do
    if Bytes.get_uint8 m.journal (p lsr 3) land (1 lsl (p land 7)) <> 0 then begin
      let b = Bytes.create page and base = p lsl page_bits in
      for i = 0 to (page / 8) - 1 do
        Bytes.set_int64_ne b (i * 8) (get64 m.data (base + (i * 8)))
      done;
      pages := (p, b) :: !pages
    end
  done;
  Array.of_list !pages

(* Rebuilds a memory from fresh zero pages plus [pages], journaling them,
   so that a capture of the result is again a complete image. *)
let of_pages (pages : (int * Bytes.t) array) (mt : meta) : t =
  let m = create () in
  Array.iter
    (fun (p, b) ->
      let base = p lsl page_bits in
      mark_dirty m base page;
      for i = 0 to (page / 8) - 1 do
        set64 m.data (base + (i * 8)) (Bytes.get_int64_ne b (i * 8))
      done)
    pages;
  m.static_brk <- mt.mt_static_brk;
  m.heap_base <- mt.mt_heap_base;
  m.heap_limit <- mt.mt_heap_limit;
  m.free_list <- mt.mt_free_list;
  m.stack_top <- mt.mt_stack_top;
  m
