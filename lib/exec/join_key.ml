open Relalg

module Tbl = Hashtbl.Make (Value)

let joins k = not (Value.is_null k)
