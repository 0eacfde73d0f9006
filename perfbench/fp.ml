(* Correctness gate: deterministic fingerprints of simulated results,
   compared against fingerprints the [Reference] engine (the executable
   specification) produces for the same inputs.

   The committed table (fingerprints.txt, one "KEY FINGERPRINT" line per
   entry) holds the reference fingerprints of the default seed; a key it
   lacks is computed with the reference engine before the timed region. *)

type table = (string, string) Hashtbl.t

(* A plain run: retired instructions, simulated wall cycles, output digest.
   A trapped run has no fingerprint worth comparing; callers count it as a
   failure on its own. *)
let of_run (r : Cpu.Machine.result) : string =
  Printf.sprintf "%d:%d:%s" r.Cpu.Machine.totals.Cpu.Counters.instrs
    r.Cpu.Machine.wall_cycles
    (Digest.to_hex r.Cpu.Machine.output_digest)

(* A campaign: digest of its deterministic results block. *)
let of_campaign (r : Campaign.report) : string =
  Digest.to_hex
    (Digest.string (Obs.Json.to_string ~compact:true (Report.campaign_results r)))

let empty () : table = Hashtbl.create 16

let load (path : string) : table =
  let t = empty () in
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        List.iter
          (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ key; fp ] when key <> "" && key.[0] <> '#' -> Hashtbl.replace t key fp
            | _ -> ())
          (In_channel.input_lines ic));
  t

(* The reference fingerprint of [key], computing (and caching) it with
   [compute] when the table lacks it. *)
let reference (t : table) (key : string) (compute : unit -> string) : string =
  match Hashtbl.find_opt t key with
  | Some fp -> fp
  | None ->
      let fp = compute () in
      Hashtbl.replace t key fp;
      fp

(* The table as file content, sorted by key. *)
let to_lines (t : table) : string list =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k ^ " " ^ v) :: acc) t [])
