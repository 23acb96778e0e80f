(** OCaml code generation from parsed DSL programs.

    The paper argues that "if an implementation is created from the DSL,
    then it must operate correctly, simply by the properties obtained from
    use of [the] type system" (§5).  This backend emits OCaml source that
    reconstructs each format as a [Netdsl_format.Desc.t] and each machine
    as a [Netdsl_fsm.Machine.t], so a specification written in [.ndsl]
    becomes a library module whose codecs and interpreters inherit every
    guarantee of the host implementation. *)

val to_ocaml : Parser.program -> string
(** A complete OCaml compilation unit.  Formats are bound as
    [format_<name>], stacks as [stack_<name>] and machines as
    [machine_<name>]; [formats] / [stacks] / [machines] assoc lists mirror
    {!Parser.program}. *)

val formats_to_ocaml : Parser.program -> string
(** {!to_ocaml} without the machines: the same [format_<name>] and
    [stack_<name>] bindings and [formats] / [stacks] lists, in a unit
    that names no [Netdsl_fsm] module.  The build generates the
    descriptions of [lib/formats] with it. *)
