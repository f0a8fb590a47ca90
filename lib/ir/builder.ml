let for_ ?(kind = Stmt.Serial) var ?(lo = Expr.Int 0) extent body =
  Stmt.For { var; lo; extent; kind; body }

let par_for ax var extent body =
  Stmt.For { var; lo = Expr.Int 0; extent; kind = Stmt.Parallel ax; body }

let let_ var value = Stmt.Let { var; value }
let assign var value = Stmt.Assign { var; value }
let store buf index value = Stmt.Store { buf; index; value }
let alloc ?(dtype = Dtype.F32) buf scope size = Stmt.Alloc { buf; scope; dtype; size }
let if_ cond ?(else_ = []) then_ = Stmt.If { cond; then_; else_ }

let memcpy ~dst ~dst_off ~src ~src_off len =
  Stmt.Memcpy { dst = { buf = dst; offset = dst_off }; src = { buf = src; offset = src_off }; len }

let sync = Stmt.Sync

let intrin op ~dst ?(srcs = []) params =
  let mk (buf, offset) : Intrin.buf_ref = { buf; offset } in
  Stmt.Intrinsic { op; dst = mk dst; srcs = List.map mk srcs; params }

let buffer ?(dtype = Dtype.F32) name : Kernel.param = { name; dtype; is_buffer = true }
let scalar ?(dtype = Dtype.I32) name : Kernel.param = { name; dtype; is_buffer = false }
