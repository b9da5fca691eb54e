type alu = Add | Sub | Mul | Div | And | Or | Xor | Sll | Srl | Sra
type cmp = Eq | Ne | Lt | Le | Gt | Ge

exception Arithmetic_fault of string

let eval_alu op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      if b = 0 then raise (Arithmetic_fault "division by zero");
      a / b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> a lsl (b land 63)
  | Srl -> a lsr (b land 63)
  | Sra -> a asr (b land 63)

(* The operands are annotated so that the comparisons compile to int
   instructions: unannotated, [eval_cmp] would be polymorphic and every
   comparison a C call, whatever the interface says. *)
let eval_cmp op (a : int) (b : int) =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let alu_unsafe = function
  | Div -> true
  | Add | Sub | Mul | And | Or | Xor | Sll | Srl | Sra -> false

let pp_alu ppf op =
  let s =
    match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Div -> "div"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Sll -> "sll"
    | Srl -> "srl"
    | Sra -> "sra"
  in
  Format.pp_print_string ppf s

let pp_cmp ppf op =
  let s =
    match op with
    | Eq -> "=="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
  in
  Format.pp_print_string ppf s

let equal_alu (a : alu) b = a = b
let equal_cmp (a : cmp) b = a = b
