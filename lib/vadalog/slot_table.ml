(* Open-addressing hash sets of slot numbers (see slot_table.mli). A
   cell holds -1 (empty) or an entry [(hash lsl 32) lor slot]: the low
   [hash_bits] of its hash above a 32-bit slot number. *)

(* one step of the id-sequence hash (see [hash_fact]) *)
let mix h id =
  let h = (h lxor id) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_fact (f : int array) = Array.fold_left mix (Array.length f) f land max_int
let hash_ids ids = List.fold_left mix 17 ids land max_int

let hash_at positions (f : int array) =
  List.fold_left (fun h p -> mix h f.(p)) 17 positions land max_int

let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let hash_bits = 30
let hash_mask = (1 lsl hash_bits) - 1
let empty = -1

type t = { mutable cells : int array; mutable size : int }

let create () = { cells = Array.make 16 empty; size = 0 }
let copy t = { cells = Array.copy t.cells; size = t.size }

let find t h matches =
  let cells = t.cells in
  let mask = Array.length cells - 1 in
  let tag = h land hash_mask in
  let rec go c =
    let e = Array.unsafe_get cells c in
    if e = empty then -1 - c
    else if e lsr slot_bits = tag && matches (e land slot_mask) then c
    else go ((c + 1) land mask)
  in
  go (tag land mask)

let slot t c = t.cells.(c) land slot_mask

(* into the first free cell of the entry's run: the growth step, where
   every entry is known to be distinct *)
let place cells e =
  let mask = Array.length cells - 1 in
  let rec go c = if cells.(c) = empty then cells.(c) <- e else go ((c + 1) land mask) in
  go ((e lsr slot_bits) land mask)

let add t miss h slot =
  t.cells.(-1 - miss) <- ((h land hash_mask) lsl slot_bits) lor slot;
  t.size <- t.size + 1;
  if 2 * t.size > Array.length t.cells then begin
    if Array.length t.cells > hash_mask then invalid_arg "Slot_table.add: table full";
    let old = t.cells in
    t.cells <- Array.make (2 * Array.length old) empty;
    Array.iter (fun e -> if e <> empty then place t.cells e) old
  end

let replace t c slot = t.cells.(c) <- t.cells.(c) land lnot slot_mask lor slot

(* Backward shift: walk the run past the hole; an entry whose home does
   not lie in (hole, c] cyclically moves back into the hole, which
   moves to where it was. The run's first empty cell ends the walk. *)
let remove t c =
  let cells = t.cells in
  let mask = Array.length cells - 1 in
  let rec shift hole c =
    let c = (c + 1) land mask in
    let e = cells.(c) in
    if e = empty then cells.(hole) <- empty
    else if (c - (e lsr slot_bits)) land mask >= (c - hole) land mask then begin
      cells.(hole) <- e;
      shift c c
    end
    else shift hole c
  in
  shift c c;
  t.size <- t.size - 1

let remap t f =
  let cells = t.cells in
  for c = 0 to Array.length cells - 1 do
    let e = cells.(c) in
    if e <> empty then cells.(c) <- e land lnot slot_mask lor f (e land slot_mask)
  done

type stats = { entries : int; cells : int; mean_displacement : float; most_per_home : int }

let stats (t : t) =
  let n = Array.length t.cells in
  let per_home = Array.make n 0 and displaced = ref 0 in
  Array.iteri
    (fun c e ->
      if e <> empty then begin
        let home = (e lsr slot_bits) land (n - 1) in
        displaced := !displaced + ((c - home) land (n - 1));
        per_home.(home) <- per_home.(home) + 1
      end)
    t.cells;
  { entries = t.size; cells = n;
    mean_displacement = float_of_int !displaced /. float_of_int (max 1 t.size);
    most_per_home = Array.fold_left max 0 per_home }
