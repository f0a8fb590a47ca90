(** Structured experiment tables: aligned text rendering plus CSV export.

    The benchmark harness builds its paper-shaped tables through this module
    and mirrors each one as a CSV under [results/] so downstream plotting
    does not have to scrape stdout. *)

type cell =
  | Pct of float  (** rendered as "97.6" *)
  | Ratio of float  (** rendered as "0.78x" *)
  | Num of float
  | Count of int
  | Text of string
  | Pair of float * float  (** compile / computation accuracy: "100.0 / 91.7" *)

type t = {
  title : string;
  col_headers : string list;  (** first column (row label) excluded *)
  rows : (string * cell list) list;
}

val make : title:string -> cols:string list -> (string * cell list) list -> t
val render : t -> string
val to_csv : t -> string

val save_csv : ?dir:string -> name:string -> t -> string
(** Writes [dir]/[name].csv (default dir "results", created if missing) and
    returns the path. *)

