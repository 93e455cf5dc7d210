(** The [transform] dialect: transformations as first-class IR.

    Every operation is a zero-operand, zero-result, region-free op whose
    parameters are plain attributes, so a transform script is ordinary IR
    that prints and parses through the generic op form
    ([{v "transform.tile"() {sizes = [32]} : () -> () v}]) with no
    parser extensions. A script is a [builtin.module] whose block holds
    transform ops in application order (sequence semantics); see
    {!Script} for construction and {!Interp} for application against a
    payload module.

    Attribute discipline: only [Int], [Ints] and [Str] attribute kinds
    are allowed (the generic attribute grammar round-trips exactly
    those); boolean parameters are spelled [Int 0/1]. The per-op
    verifiers, registered when this module initialises, enforce shape
    and ranges, so a malformed script is rejected at parse/verify time,
    before interpretation. *)
