//! Structural and type verification of IR.
//!
//! [`verify_module`] checks SSA dominance (in the structured-region sense),
//! per-op typing rules, terminator placement, and cross-references (LUT
//! tables named by `lut.col` must exist).

use crate::module::{Func, Module, OpId, RegionId, ValueId};
use crate::ops::OpKind;
use crate::types::Type;
use std::fmt;

/// The category of a verification failure — a stable code for
/// programmatic classification (the harness incident log and tests key on
/// it instead of matching message strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VerifyCode {
    /// An operand used before its definition or out of scope.
    Dominance,
    /// A terminator in the wrong place, or a region missing one.
    Terminator,
    /// An op with the wrong number of operands.
    Arity,
    /// An op whose operand/result types do not satisfy its typing rule.
    Type,
    /// A missing or malformed op attribute.
    Attribute,
    /// A dangling or inconsistent LUT cross-reference.
    LutRef,
    /// A structural rule violation (region shapes, nesting, counts).
    Structure,
}

impl VerifyCode {
    /// The stable kebab-case spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyCode::Dominance => "dominance",
            VerifyCode::Terminator => "terminator",
            VerifyCode::Arity => "arity",
            VerifyCode::Type => "type",
            VerifyCode::Attribute => "attribute",
            VerifyCode::LutRef => "lut-ref",
            VerifyCode::Structure => "structure",
        }
    }
}

impl fmt::Display for VerifyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The failure category.
    pub code: VerifyCode,
    /// The module (model) being verified.
    pub model: Option<String>,
    /// The function in which the error occurred, if any.
    pub func: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[verify/{}]", self.code)?;
        if let Some(m) = &self.model {
            write!(f, " in module '{m}'")?;
        }
        if let Some(name) = &self.func {
            write!(f, " in @{name}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Internal error carrier: a [`VerifyCode`] plus message, before module /
/// function attribution. Bare strings convert with code
/// [`VerifyCode::Type`] — the dominant category inside `verify_op` — and
/// every other category is tagged explicitly at the error site.
struct VErr {
    code: VerifyCode,
    message: String,
}

impl VErr {
    fn new(code: VerifyCode, message: impl Into<String>) -> VErr {
        VErr {
            code,
            message: message.into(),
        }
    }
}

impl From<String> for VErr {
    fn from(message: String) -> VErr {
        VErr::new(VerifyCode::Type, message)
    }
}

impl From<&str> for VErr {
    fn from(message: &str) -> VErr {
        VErr::new(VerifyCode::Type, message)
    }
}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
///
/// # Examples
///
/// ```
/// use limpet_ir::{Builder, Func, Module, verify_module};
/// let mut m = Module::new("m");
/// let mut f = Func::new("f", &[], &[]);
/// Builder::new(&mut f).ret(&[]);
/// m.add_func(f);
/// assert!(verify_module(&m).is_ok());
/// ```
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    let lut_err = |message: String| VerifyError {
        code: VerifyCode::LutRef,
        model: Some(module.name().to_owned()),
        func: None,
        message,
    };
    for lut in &module.luts {
        let func = module.func(&lut.func).ok_or_else(|| {
            lut_err(format!(
                "lut @{} references missing function @{}",
                lut.name, lut.func
            ))
        })?;
        if func.arg_types() != [Type::F64] {
            return Err(lut_err(format!(
                "lut function @{} must take a single f64 key",
                lut.func
            )));
        }
        if func.result_types().len() != lut.cols.len() {
            return Err(lut_err(format!(
                "lut @{} declares {} columns but @{} returns {} values",
                lut.name,
                lut.cols.len(),
                lut.func,
                func.result_types().len()
            )));
        }
        if lut.step <= 0.0 || lut.hi <= lut.lo {
            return Err(lut_err(format!(
                "lut @{} has an empty or inverted range",
                lut.name
            )));
        }
    }
    for func in module.funcs() {
        verify_func(module, func).map_err(|e| VerifyError {
            code: e.code,
            model: Some(module.name().to_owned()),
            func: Some(func.name().to_owned()),
            message: e.message,
        })?;
    }
    Ok(())
}

fn verify_func(module: &Module, func: &Func) -> Result<(), VErr> {
    let mut v = Verifier {
        module,
        func,
        defined: vec![false; func.num_values()],
    };
    v.verify_region(func.body(), None)
}

struct Verifier<'a> {
    module: &'a Module,
    func: &'a Func,
    /// Whether each value, by index, is defined and in scope.
    defined: Vec<bool>,
}

impl<'a> Verifier<'a> {
    fn ty(&self, v: ValueId) -> Type {
        self.func.value_type(v)
    }

    fn define(&mut self, v: ValueId, added: &mut Vec<ValueId>) {
        if !self.defined[v.index()] {
            self.defined[v.index()] = true;
            added.push(v);
        }
    }

    /// Verifies ops of `region`; `enclosing` is the op owning the region
    /// (`None` for the function body). Values defined inside the region —
    /// its arguments and every op result, including those of nested
    /// regions — go out of scope when this returns, enforcing
    /// structured-region dominance.
    fn verify_region(&mut self, region: RegionId, enclosing: Option<OpId>) -> Result<(), VErr> {
        let mut added: Vec<ValueId> = Vec::new();
        // Region arguments are visible within the region only.
        for &a in &self.func.region(region).args {
            self.define(a, &mut added);
        }
        let result = self.verify_region_inner(region, enclosing, &mut added);
        for v in added {
            self.defined[v.index()] = false;
        }
        result
    }

    fn verify_region_inner(
        &mut self,
        region: RegionId,
        enclosing: Option<OpId>,
        added: &mut Vec<ValueId>,
    ) -> Result<(), VErr> {
        let ops = &self.func.region(region).ops;
        for (i, &op_id) in ops.iter().enumerate() {
            let op = self.func.op(op_id);
            // Dominance: all operands already defined and in scope.
            for &operand in &op.operands {
                if !self.defined.get(operand.index()).copied().unwrap_or(false) {
                    return Err(VErr::new(
                        VerifyCode::Dominance,
                        format!("{} uses value defined later or out of scope", op.kind),
                    ));
                }
            }
            // Terminators must be last; last op of a sub-region must terminate.
            if op.kind.is_terminator() && i + 1 != ops.len() {
                return Err(VErr::new(
                    VerifyCode::Terminator,
                    format!("{} is not the last op of its region", op.kind),
                ));
            }
            self.verify_op(op_id, enclosing)?;
            for &r in &op.regions {
                self.verify_region(r, Some(op_id))?;
            }
            for &r in &op.results {
                self.define(r, added);
            }
        }
        // Sub-regions must end with a terminator.
        if enclosing.is_some() {
            match ops.last() {
                Some(&last) if self.func.op(last).kind.is_terminator() => {}
                _ => {
                    return Err(VErr::new(
                        VerifyCode::Terminator,
                        "region does not end with a terminator",
                    ))
                }
            }
        }
        Ok(())
    }

    fn verify_op(&self, op_id: OpId, enclosing: Option<OpId>) -> Result<(), VErr> {
        let op = self.func.op(op_id);
        let kind = &op.kind;
        let arity_err = |want: usize| {
            Err(VErr::new(
                VerifyCode::Arity,
                format!(
                    "{} expects {} operands, has {}",
                    kind,
                    want,
                    op.operands.len()
                ),
            ))
        };
        match kind {
            OpKind::ConstantF(_) => {
                if !op.results.iter().all(|&r| self.ty(r).is_float_like()) {
                    return Err("float constant must have f64-like type".into());
                }
            }
            OpKind::ConstantInt(_) => {
                let ok = op.results.iter().all(|&r| {
                    matches!(self.ty(r), Type::Scalar(s) if s.is_integer_like() && !self.ty(r).is_bool_like())
                });
                if !ok {
                    return Err("int constant must have i64 or index type".into());
                }
            }
            OpKind::ConstantBool(_) => {
                if !op.results.iter().all(|&r| self.ty(r).is_bool_like()) {
                    return Err("bool constant must have i1-like type".into());
                }
            }
            OpKind::AddF
            | OpKind::SubF
            | OpKind::MulF
            | OpKind::DivF
            | OpKind::RemF
            | OpKind::MinF
            | OpKind::MaxF => {
                if op.operands.len() != 2 {
                    return arity_err(2);
                }
                let (a, b) = (self.ty(op.operands[0]), self.ty(op.operands[1]));
                let r = self.ty(op.result());
                if a != b || a != r || !a.is_float_like() {
                    return Err(format!("{kind} type mismatch: {a}, {b} -> {r}").into());
                }
            }
            OpKind::NegF => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                let a = self.ty(op.operands[0]);
                if a != self.ty(op.result()) || !a.is_float_like() {
                    return Err("negf type mismatch".into());
                }
            }
            OpKind::Fma => {
                if op.operands.len() != 3 {
                    return arity_err(3);
                }
                let t = self.ty(op.result());
                if !t.is_float_like() || op.operands.iter().any(|&o| self.ty(o) != t) {
                    return Err("fma type mismatch".into());
                }
            }
            OpKind::AddI | OpKind::SubI | OpKind::MulI => {
                if op.operands.len() != 2 {
                    return arity_err(2);
                }
                let a = self.ty(op.operands[0]);
                if a != self.ty(op.operands[1]) || a != self.ty(op.result()) {
                    return Err(format!("{kind} type mismatch").into());
                }
                if a.is_float_like() || a.is_bool_like() {
                    return Err(format!("{kind} needs integer operands").into());
                }
            }
            OpKind::CmpF(_) => {
                if op.operands.len() != 2 {
                    return arity_err(2);
                }
                let a = self.ty(op.operands[0]);
                let r = self.ty(op.result());
                if a != self.ty(op.operands[1]) || !a.is_float_like() {
                    return Err("cmpf operands must be matching floats".into());
                }
                if !r.is_bool_like() || r.lanes() != a.lanes() {
                    return Err("cmpf result must be i1 at operand lanes".into());
                }
            }
            OpKind::CmpI(_) => {
                if op.operands.len() != 2 {
                    return arity_err(2);
                }
                let a = self.ty(op.operands[0]);
                if a != self.ty(op.operands[1]) || a.is_float_like() {
                    return Err("cmpi operands must be matching integers".into());
                }
                if !self.ty(op.result()).is_bool_like() {
                    return Err("cmpi result must be i1".into());
                }
            }
            OpKind::AndI | OpKind::OrI | OpKind::XorI => {
                if op.operands.len() != 2 {
                    return arity_err(2);
                }
                let a = self.ty(op.operands[0]);
                if a != self.ty(op.operands[1]) || a != self.ty(op.result()) || !a.is_bool_like() {
                    return Err(format!("{kind} needs matching i1-like operands").into());
                }
            }
            OpKind::Select => {
                if op.operands.len() != 3 {
                    return arity_err(3);
                }
                let c = self.ty(op.operands[0]);
                let a = self.ty(op.operands[1]);
                let b = self.ty(op.operands[2]);
                let r = self.ty(op.result());
                if !c.is_bool_like() || a != b || a != r {
                    return Err("select type mismatch".into());
                }
                if c.lanes() != 1 && c.lanes() != a.lanes() {
                    return Err("select condition lanes must be 1 or match arms".into());
                }
            }
            OpKind::SIToFP => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                if !self.ty(op.result()).is_float_like() {
                    return Err("sitofp result must be float".into());
                }
            }
            OpKind::IndexCast => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
            }
            OpKind::Math(f) => {
                if op.operands.len() != f.arity() {
                    return arity_err(f.arity());
                }
                let t = self.ty(op.result());
                if !t.is_float_like() || op.operands.iter().any(|&o| self.ty(o) != t) {
                    return Err(format!("{kind} type mismatch").into());
                }
            }
            OpKind::Broadcast => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                let a = self.ty(op.operands[0]);
                let r = self.ty(op.result());
                if !a.is_scalar() || !r.is_vector() || a.scalar() != r.scalar() {
                    return Err("broadcast must widen a scalar to a vector".into());
                }
            }
            OpKind::If => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                if !self.ty(op.operands[0]).is_bool_like() || self.ty(op.operands[0]).lanes() != 1 {
                    return Err("scf.if condition must be scalar i1".into());
                }
                if op.regions.len() != 2 {
                    return Err(VErr::new(
                        VerifyCode::Structure,
                        "scf.if needs then and else regions",
                    ));
                }
            }
            OpKind::For => {
                if op.operands.len() < 3 {
                    return arity_err(3);
                }
                for &b in &op.operands[..3] {
                    if self.ty(b) != Type::INDEX {
                        return Err("scf.for bounds must be index-typed".into());
                    }
                }
                let iters = &op.operands[3..];
                if iters.len() != op.results.len() {
                    return Err(VErr::new(
                        VerifyCode::Structure,
                        "scf.for iter_args/results count mismatch",
                    ));
                }
                let body = op.regions.first().ok_or_else(|| {
                    VErr::new(VerifyCode::Structure, "scf.for needs a body region")
                })?;
                let args = &self.func.region(*body).args;
                if args.len() != iters.len() + 1 {
                    return Err(VErr::new(
                        VerifyCode::Structure,
                        "scf.for body must have [iv, iters...] args",
                    ));
                }
                for (i, &init) in iters.iter().enumerate() {
                    if self.ty(init) != self.ty(args[i + 1])
                        || self.ty(init) != self.ty(op.results[i])
                    {
                        return Err("scf.for iter type mismatch".into());
                    }
                }
            }
            OpKind::Yield => {
                let parent = enclosing.ok_or_else(|| {
                    VErr::new(VerifyCode::Structure, "scf.yield outside a region")
                })?;
                let parent_op = self.func.op(parent);
                match parent_op.kind {
                    OpKind::If | OpKind::For => {}
                    _ => return Err("scf.yield must terminate an scf region".into()),
                }
                if op.operands.len() != parent_op.results.len() {
                    return Err(VErr::new(
                        VerifyCode::Structure,
                        format!(
                            "scf.yield yields {} values but parent produces {}",
                            op.operands.len(),
                            parent_op.results.len()
                        ),
                    ));
                }
                for (&y, &r) in op.operands.iter().zip(&parent_op.results) {
                    if self.ty(y) != self.ty(r) {
                        return Err("scf.yield type mismatch with parent results".into());
                    }
                }
            }
            OpKind::Return => {
                if enclosing.is_some() {
                    return Err(VErr::new(
                        VerifyCode::Structure,
                        "func.return inside a nested region",
                    ));
                }
                let want = self.func.result_types();
                if op.operands.len() != want.len() {
                    return Err(VErr::new(
                        VerifyCode::Arity,
                        format!(
                            "return has {} operands, function declares {} results",
                            op.operands.len(),
                            want.len()
                        ),
                    ));
                }
                for (&o, &t) in op.operands.iter().zip(want) {
                    if self.ty(o) != t {
                        return Err("return operand type mismatch".into());
                    }
                }
            }
            OpKind::GetExt | OpKind::GetState => {
                if op.attrs.str_of("var").is_none() {
                    return Err(VErr::new(
                        VerifyCode::Attribute,
                        format!("{kind} missing `var` attribute"),
                    ));
                }
                if !self.ty(op.result()).is_float_like() {
                    return Err(format!("{kind} result must be f64-like").into());
                }
            }
            OpKind::SetExt | OpKind::SetState | OpKind::SetParentState => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                if op.attrs.str_of("var").is_none() {
                    return Err(VErr::new(
                        VerifyCode::Attribute,
                        format!("{kind} missing `var` attribute"),
                    ));
                }
            }
            OpKind::GetParentState => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                if op.attrs.str_of("var").is_none() {
                    return Err(VErr::new(
                        VerifyCode::Attribute,
                        format!("{kind} missing `var` attribute"),
                    ));
                }
                if self.ty(op.operands[0]) != self.ty(op.result()) {
                    return Err("get_parent_state fallback type mismatch".into());
                }
            }
            OpKind::Param => {
                if op.attrs.str_of("name").is_none() {
                    return Err(VErr::new(
                        VerifyCode::Attribute,
                        "limpet.param missing `name` attribute",
                    ));
                }
                if self.ty(op.result()) != Type::F64 {
                    return Err("limpet.param result must be scalar f64".into());
                }
            }
            OpKind::HasParent => {
                if self.ty(op.result()) != Type::I1 {
                    return Err("has_parent result must be i1".into());
                }
            }
            OpKind::Dt | OpKind::Time => {
                if self.ty(op.result()) != Type::F64 {
                    return Err(format!("{kind} result must be scalar f64").into());
                }
            }
            OpKind::CellIndex => {
                if self.ty(op.result()) != Type::INDEX {
                    return Err("cell_index result must be index".into());
                }
            }
            OpKind::LutCol => {
                if op.operands.len() != 1 {
                    return arity_err(1);
                }
                let table = op.attrs.str_of("table").ok_or_else(|| {
                    VErr::new(VerifyCode::Attribute, "lut.col missing `table` attribute")
                })?;
                let col = op.attrs.i64_of("col").ok_or_else(|| {
                    VErr::new(VerifyCode::Attribute, "lut.col missing `col` attribute")
                })?;
                let spec = self.module.lut(table).ok_or_else(|| {
                    VErr::new(
                        VerifyCode::LutRef,
                        format!("lut.col references unknown table {table:?}"),
                    )
                })?;
                if col < 0 || col as usize >= spec.cols.len() {
                    return Err(VErr::new(
                        VerifyCode::LutRef,
                        format!("lut.col column {col} out of range for table {table:?}"),
                    ));
                }
                let k = self.ty(op.operands[0]);
                let r = self.ty(op.result());
                if !k.is_float_like() || k != r {
                    return Err("lut.col key/result must be matching f64-like".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attrs;
    use crate::builder::Builder;
    use crate::ops::CmpFPred;

    fn empty_module_with(f: Func) -> Module {
        let mut m = Module::new("m");
        m.add_func(f);
        m
    }

    #[test]
    fn valid_function_passes() {
        let mut f = Func::new("f", &[], &[]);
        let mut b = Builder::new(&mut f);
        let x = b.const_f(1.0);
        let y = b.exp(x);
        let c = b.cmpf(CmpFPred::Ogt, y, x);
        let s = b.select(c, x, y);
        b.set_state("u", s);
        b.ret(&[]);
        assert!(verify_module(&empty_module_with(f)).is_ok());
    }

    #[test]
    fn use_before_def_fails() {
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        // Manually construct a forward reference.
        let c1 = f.push_op(
            body,
            OpKind::ConstantF(1.0),
            vec![],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let v1 = f.op(c1).result();
        let add = f.push_op(
            body,
            OpKind::AddF,
            vec![v1, v1],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let vadd = f.op(add).result();
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        // Swap order: add now precedes its operand's definition.
        f.region_mut(body).ops.swap(0, 1);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert!(err.message.contains("defined later"), "{err}");
        let _ = vadd;
    }

    #[test]
    fn type_mismatch_fails() {
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let c1 = f.push_op(
            body,
            OpKind::ConstantF(1.0),
            vec![],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let c2 = f.push_op(
            body,
            OpKind::ConstantInt(1),
            vec![],
            &[Type::I64],
            Attrs::new(),
            vec![],
        );
        let (v1, v2) = (f.op(c1).result(), f.op(c2).result());
        f.push_op(
            body,
            OpKind::AddF,
            vec![v1, v2],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        assert!(verify_module(&empty_module_with(f)).is_err());
    }

    #[test]
    fn yield_count_mismatch_fails() {
        let mut f = Func::new("f", &[], &[]);
        let mut b = Builder::new(&mut f);
        let c = b.const_bool(true);
        b.if_op(
            c,
            &[Type::F64],
            |b| b.yield_(&[]), // wrong: parent produces 1 result
            |b| {
                let v = b.const_f(0.0);
                b.yield_(&[v]);
            },
        );
        b.ret(&[]);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert!(err.message.contains("yield"), "{err}");
    }

    #[test]
    fn missing_terminator_fails() {
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let c = f.push_op(
            body,
            OpKind::ConstantBool(true),
            vec![],
            &[Type::I1],
            Attrs::new(),
            vec![],
        );
        let cond = f.op(c).result();
        let then_r = f.new_region(&[]);
        let else_r = f.new_region(&[]);
        // then region left empty: no terminator.
        f.push_op(else_r, OpKind::Yield, vec![], &[], Attrs::new(), vec![]);
        f.push_op(
            body,
            OpKind::If,
            vec![cond],
            &[],
            Attrs::new(),
            vec![then_r, else_r],
        );
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert!(err.message.contains("terminator"), "{err}");
    }

    #[test]
    fn lut_reference_checked() {
        let mut f = Func::new("f", &[], &[]);
        let mut b = Builder::new(&mut f);
        let k = b.const_f(0.0);
        let v = b.lut_col("Vm", 0, k);
        b.set_state("u", v);
        b.ret(&[]);
        let m = empty_module_with(f);
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("unknown table"), "{err}");
        assert_eq!(err.code, VerifyCode::LutRef);
        assert_eq!(err.model.as_deref(), Some("m"));
    }

    #[test]
    fn codes_classify_failures() {
        // Dominance: reuse the use-before-def construction.
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let c1 = f.push_op(
            body,
            OpKind::ConstantF(1.0),
            vec![],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let v1 = f.op(c1).result();
        f.push_op(
            body,
            OpKind::AddF,
            vec![v1, v1],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        f.region_mut(body).ops.swap(0, 1);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert_eq!(err.code, VerifyCode::Dominance);
        assert_eq!(err.func.as_deref(), Some("f"));

        // Arity: addf with one operand.
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let c = f.push_op(
            body,
            OpKind::ConstantF(1.0),
            vec![],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let v = f.op(c).result();
        f.push_op(
            body,
            OpKind::AddF,
            vec![v],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert_eq!(err.code, VerifyCode::Arity);

        // Attribute: set_state with no `var`.
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let c = f.push_op(
            body,
            OpKind::ConstantF(1.0),
            vec![],
            &[Type::F64],
            Attrs::new(),
            vec![],
        );
        let v = f.op(c).result();
        f.push_op(body, OpKind::SetState, vec![v], &[], Attrs::new(), vec![]);
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert_eq!(err.code, VerifyCode::Attribute);
    }

    #[test]
    fn return_type_checked() {
        let mut f = Func::new("f", &[], &[Type::F64]);
        let mut b = Builder::new(&mut f);
        b.ret(&[]);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert!(err.message.contains("return"), "{err}");
    }

    #[test]
    fn vector_if_condition_rejected() {
        let mut f = Func::new("f", &[], &[]);
        let body = f.body();
        let c = f.push_op(
            body,
            OpKind::ConstantBool(true),
            vec![],
            &[Type::vector(4, crate::types::ScalarType::I1)],
            Attrs::new(),
            vec![],
        );
        let cond = f.op(c).result();
        let then_r = f.new_region(&[]);
        let else_r = f.new_region(&[]);
        f.push_op(then_r, OpKind::Yield, vec![], &[], Attrs::new(), vec![]);
        f.push_op(else_r, OpKind::Yield, vec![], &[], Attrs::new(), vec![]);
        f.push_op(
            body,
            OpKind::If,
            vec![cond],
            &[],
            Attrs::new(),
            vec![then_r, else_r],
        );
        f.push_op(body, OpKind::Return, vec![], &[], Attrs::new(), vec![]);
        let err = verify_module(&empty_module_with(f)).unwrap_err();
        assert!(err.message.contains("scalar i1"), "{err}");
    }
}
