module Pass = Xpiler_passes.Pass

type t = {
  pass_name : string;
  agnostic : string;
  examples : string list;
  knobs : string option;
  hints : string list;
}

(* fault-specific guidance for a re-prompt, keyed by the fault class the
   validator diagnosed on the previous attempt (escalation ladder, rung 1) *)
let hint_for = function
  | Fault.Parallelism ->
    "The previous attempt mis-mapped a parallel built-in variable. Use only \
     the target platform's built-ins, preserve the barrier structure, and do \
     not invent parallelism the target cannot launch."
  | Fault.Memory ->
    "The previous attempt mis-staged a buffer. Check every staging copy and \
     the on-chip memory space of each buffer against the target memory \
     hierarchy, and keep store indices aligned with the staged window."
  | Fault.Instruction ->
    "The previous attempt selected a wrong intrinsic or parameter. Verify \
     each intrinsic and its length parameters against the target ISA \
     reference, and re-derive loop bounds from the iteration space."

let with_hints ~categories t =
  { t with hints = List.map hint_for categories }

let agnostic_description spec =
  match Pass.name spec with
  | "loop-recovery" ->
    "Convert every parallel built-in variable of the source program into an \
     explicit sequential for loop, splitting barrier regions so that the \
     sequential execution order preserves the original lockstep semantics."
  | "loop-bind" ->
    "Assign the iterations of a sequential loop to a parallel built-in variable \
     of the target platform, recording the launch extent."
  | "loop-split" ->
    "Divide the given for loop into two nested sub-loops so the combined \
     iteration space exactly covers the original loop without remainder."
  | "loop-fuse" -> "Merge two perfectly nested loops into a single hyper-loop."
  | "loop-reorder" -> "Change the execution order of two perfectly nested loops."
  | "loop-expansion" -> "Distribute a loop body into several independent loop bodies."
  | "loop-contraction" -> "Merge the producer loop into the loop body of its consumer."
  | "cache" ->
    "Adapt the program to the target memory hierarchy: stage the accessed window \
     of a buffer into fast on-chip memory, load inputs before use and store \
     outputs after the region."
  | "pipeline" -> "Overlap data load/store with computation by software pipelining."
  | "tensorize" ->
    "Replace a scalar loop nest with the platform's specialized intrinsic that \
     performs the same computation, as used in deep learning frameworks and \
     common linear algebra kernels (SIMD)."
  | "detensorize" -> "Restore a specific loop body from special intrinsics."
  | other -> other

let retrieval_query spec kernel =
  match spec with
  | Pass.Tensorize | Pass.Detensorize ->
    let ops = Annotate.operations_in kernel in
    String.concat " " (List.map Annotate.operation_name ops)
    ^ " vector intrinsic matmul elementwise"
  | Pass.Cache _ | Pass.Rescope _ -> "memory hierarchy on-chip staging"
  | Pass.Loop_bind _ | Pass.Loop_recovery -> "parallel built-in"
  | _ -> "loop transformation"

let knob_text = function
  | Pass.Loop_split { var; factor } ->
    Some
      (Printf.sprintf
         "Split the given for loop variable %s and return a list of all possible \
          loop indices and their loop extents. The actual loop index value can be \
          calculated by combining the two loop variables without any remainders. \
          Candidate factor: %d."
         var factor)
  | Pass.Loop_reorder { var } ->
    Some (Printf.sprintf "Enumerate legal execution orders for the nest rooted at %s." var)
  | _ -> None

let build ~target spec kernel =
  let examples =
    Xpiler_manual.Corpus.search target (retrieval_query spec kernel) 3
    |> List.map (fun (e : Xpiler_manual.Corpus.entry) -> e.body)
  in
  { pass_name = Pass.describe spec;
    agnostic = agnostic_description spec;
    examples;
    knobs = knob_text spec;
    hints = []
  }

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b ("### Pass: " ^ t.pass_name ^ "\n\n");
  Buffer.add_string b (t.agnostic ^ "\n");
  if t.examples <> [] then begin
    Buffer.add_string b "\nTarget-platform references:\n";
    List.iter (fun e -> Buffer.add_string b ("- " ^ e ^ "\n")) t.examples
  end;
  (match t.knobs with
  | Some k -> Buffer.add_string b ("\nTuning knobs:\n" ^ k ^ "\n")
  | None -> ());
  if t.hints <> [] then begin
    Buffer.add_string b "\nFault-specific hints from the previous attempt:\n";
    List.iter (fun h -> Buffer.add_string b ("- " ^ h ^ "\n")) t.hints
  end;
  Buffer.contents b
