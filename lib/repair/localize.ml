open Xpiler_ir
open Xpiler_machine
open Xpiler_ops

type report = {
  failing_buffers : string list;
  runtime_error : string option;
  sites : Site.t list;
  unrepairable : string list;
}

(* statements under data-dependent control flow: a conditional over a
   buffer load, or over a scalar whose value depends on one (the Figure 9
   pattern) *)
let dynamic_stmts (k : Kernel.t) =
  let found = ref [] in
  let tainted = Hashtbl.create 8 in
  let expr_tainted e =
    Expr.buffers_read e <> []
    || List.exists (Hashtbl.mem tainted) (Expr.free_vars e)
  in
  let rec walk in_dyn block =
    List.iter
      (fun s ->
        (match s with
        | Stmt.Let { var; value } | Stmt.Assign { var; value } ->
          if expr_tainted value then Hashtbl.replace tainted var ()
        | _ -> ());
        if in_dyn then found := s :: !found;
        match s with
        | Stmt.For r -> walk in_dyn r.body
        | Stmt.If r ->
          let dyn = in_dyn || expr_tainted r.cond in
          walk dyn r.then_;
          walk dyn r.else_
        | _ -> ())
      block
  in
  walk false k.Kernel.body;
  !found

let localize ?(seed = 20250706) ~op ~shape (kernel : Kernel.t) =
  let args, expected = Unit_test.reference_outputs_seeded ~seed op shape in
  let out_names = List.map fst expected in
  let runtime_error =
    match Interp.run kernel args with
    | _ -> None
    | exception Interp.Runtime_error m -> Some m
  in
  let outs =
    List.filter_map
      (fun (b : Opdef.buffer_spec) ->
        if b.is_output then
          match List.assoc_opt b.buf_name args with
          | Some (Interp.Buf t) -> Some (b.buf_name, t)
          | _ -> None
        else None)
      op.Opdef.buffers
  in
  let failing_buffers =
    match runtime_error with
    | Some _ -> out_names
    | None ->
      List.filter_map
        (fun (name, t) ->
          match List.assoc_opt name expected with
          | Some e when Tensor.allclose ~rtol:1e-3 ~atol:1e-4 t e -> None
          | _ -> Some name)
        outs
  in
  (* dataflow cone of the failing buffers *)
  let cone = ref failing_buffers in
  let grew = ref true in
  while !grew do
    grew := false;
    Stmt.iter
      (fun s ->
        let writes = Stmt.buffers_written [ s ] in
        if List.exists (fun b -> List.mem b !cone) writes then
          List.iter
            (fun b ->
              if not (List.mem b !cone) then begin
                cone := b :: !cone;
                grew := true
              end)
            (Stmt.buffers_read [ s ]))
      kernel.Kernel.body
  done;
  let in_cone b = List.mem b !cone in
  let dynamic = dynamic_stmts kernel in
  let unrepairable = ref [] in
  (* a site in the cone is kept unless it sits under data-dependent control
     flow, where the SMT stage cannot extract constraints *)
  let keep (site, s) =
    let what, relevant =
      match (site, s) with
      | Site.Param _, Stmt.Intrinsic i ->
        ("intrinsic parameter", List.exists in_cone (Intrin.buffers i))
      | Site.Param _, Stmt.Memcpy { dst; src; _ } ->
        ("intrinsic parameter", in_cone dst.buf || in_cone src.buf)
      | Site.Bound _, Stmt.For { body; _ } ->
        (* a loop matters if its subtree writes a failing buffer, or if it
           accumulates into a scalar (reduction loops write buffers only
           after they finish) *)
        let has_assign =
          Stmt.fold (fun acc s -> acc || match s with Stmt.Assign _ -> true | _ -> false) false body
        in
        ("loop bound", has_assign || List.exists in_cone (Stmt.buffers_written body))
      | Site.Index { buf; _ }, _ -> ("store index", in_cone buf)
      | _ -> ("", false)
    in
    if not relevant then None
    else if List.memq s dynamic then begin
      unrepairable := (what ^ " under data-dependent control flow") :: !unrepairable;
      None
    end
    else Some site
  in
  let sites = List.filter_map keep (Site.walk kernel) in
  { failing_buffers; runtime_error; sites; unrepairable = !unrepairable }

(* ---- static localization ------------------------------------------------------ *)

(* translate analyzer findings into a report without running a single probe:
   the analyzer names its sites through [Site], like [localize] *)
let of_findings (findings : Xpiler_analysis.Analyzer.finding list) =
  let module A = Xpiler_analysis.Analyzer in
  let sites =
    List.concat_map (fun (f : A.finding) -> f.A.sites) findings
    |> List.fold_left (fun acc s -> if List.mem s acc then acc else s :: acc) []
    |> List.rev
  in
  let failing_buffers =
    List.concat_map (fun (f : A.finding) -> f.A.buffers) findings
    |> List.sort_uniq String.compare
  in
  let runtime_error =
    List.find_map
      (fun (f : A.finding) ->
        match f.A.check with
        | A.Barrier_divergence ->
          Some ("modelled deadlock: " ^ f.A.diag.Diag.message)
        | _ -> None)
      findings
  in
  let unrepairable =
    List.filter_map
      (fun (f : A.finding) ->
        if f.A.sites = [] then Some f.A.diag.Diag.message else None)
      findings
  in
  { failing_buffers; runtime_error; sites; unrepairable }
