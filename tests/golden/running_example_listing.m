% Short-step primal-dual SDP solver with its runtime contract catalog.
% Emitted by credible-sdp 0.1.0; problem hash e4f098fca2a5.

% Dual form:   maximize trace(F0*Z)
%              subject to trace(Fi*Z)+b(i)==0 for i=1..m and Z>=0.
% Primal form: minimize b'*p
%              subject to F0+sum(p(i)*Fi,i,1,m)+X==0 and X>=0.

% Reading the annotations: a 'requires' line must hold before the next
% statement runs; an 'ensures' line must hold right after it. The
% requires block in front of the while loop is its invariant: true on
% entry and re-established by every pass. Each annotation carries the
% id under which the solver records the matching runtime check.

% --- problem data -------------------------------------------------------
n = 2; m = 3;
F0 = [1.0,0.0;0.0,0.1];
F1 = [-0.750999,0.00499;0.00499,0.0001];
F2 = [0.03992,-0.999101;-0.999101,0.00002];
F3 = [0.0016,0.00004;0.00004,-0.999999];
F = [vecs(F1);vecs(F2);vecs(F3)];
b = [0.4;-0.2;0.2];
epsilon = 1e-08;
sigma = 0.75;
%% requires isposdef(F0)  [init-f0-pd]
%% requires transpose(Fi)==Fi for i=1..m  [init-fi-symmetric]
%% requires n>=1 && m>=1  [init-size]
%% requires epsilon>0  [init-epsilon-positive]
%% requires sigma==0.75  [init-sigma-constant]

% --- starting point -----------------------------------------------------
X = [0.0995,0.0359;0.0359,0.2248];
%% ensures X>0  [init-x0-pd]
Z = mats(lsqr(F,-b),n);
% Z solves the dual equations at minimum norm and never moves again:
% every pass below produces dZm == 0, so dual feasibility is inherited.
%% ensures Z>0  [init-z0-pd]
%% ensures F*vecs(Z)+b==zeros(m,1)  [init-dual-feasibility]
% transpose(F) never changes: it is factored once, for p and every dpm.
Fti = pinv(transpose(F));
p = Fti*vecs(-F0-X);
P = mats(p,n);
%% ensures transpose(P)==P  [init-p-symmetric]
%% ensures F0+sum(p(i)*Fi,i,1,m)+X==0  [init-primal-feasibility]
phi = trace(X*Z);
phim = phi/sigma;
mu = phi/n;
%% ensures phi==trace(X*Z)  [init-phi-definition]
%% ensures n*mu==trace(X*Z)  [init-mu-definition]
%% ensures phi-0.76*phim<0  [init-phim-seed]
%% ensures trace(X*Z)>0  [init-gap-positive]
%% ensures trace(X*Z)<=0.1  [init-gap-upper]
%% ensures norm(X*Z-(trace(X*Z)/n)*eye(n,n),'fro')<=0.3105*(trace(X*Z)/n)  [init-neighborhood]

% --- Newton system invariants -------------------------------------------
% Z never moves, so its scaling pair is computed once, before the loop.
Zh = Z^0.5;
Zhi = Zh^-1;

% --- main loop ----------------------------------------------------------
%% requires X>0 && Z>0  [I1]
%% requires trace(X*Z)<=0.1  [I2]
%% requires phi-0.76*phim<0  [I3]
%% requires norm(X*Z-mu*eye(n,n),'fro')<=0.3105*mu  [I4]
while phi > epsilon
  Xm = X; Zm = Z; pm = p;
  mu = trace(Xm*Zm)/n;
  r = sigma*mu*eye(n,n)-Zh*Xm*Zh;
  % minimum-norm solutions of krons(Zh,Zh,n)*dXm==vecs(r) (I10), by its
  % inverse krons(Zhi,Zhi,n), and of transpose(F)*dpm==-dXm (I9).
  dZm = zeros(n*(n+1)/2,1);
  dXm = vecs(Zhi*r*Zhi);
  dpm = -Fti*dXm;
  %% ensures norm(Zhi*mats(dZm,n)*Zhi,'fro')<=0.7  [I5]
  %% ensures norm(Zhi*mats(dXm,n)*mats(dZm,n)*Zh,'fro')<=0.3105*sigma*mu  [I6]
  %% ensures trace(Xm*mats(dZm,n))+trace(mats(dXm,n)*Zm)+trace(Xm*Zm)-sigma*n*mu==0  [I7]
  %% ensures F*dZm==zeros(m,1) && sum(dpm(i)*Fi,i,1,m)+mats(dXm,n)==0  [I9]
  %% ensures 0.5*(Zhi*(mats(dZm,n)*Xm+Zm*mats(dXm,n))*Zh+Zh*(Xm*mats(dZm,n)+mats(dXm,n)*Zm)*Zhi)==sigma*mu*eye(n,n)-Zh*Xm*Zh  [I10]
  %% ensures eye(n,n)+Zhi*mats(dZm,n)*Zhi>0  [I12]
  X = Xm+mats(dXm,n);
  Z = Zm+mats(dZm,n);
  p = pm+dpm;
  %% ensures X>0 && Z>0  [I1]
  %% ensures norm(Zh*X*Zh-sigma*mu*eye(n,n),'fro')<=0.5*norm(Zhi*(Z*X-sigma*mu*eye(n,n))*Zh+Zh*(X*Z-sigma*mu*eye(n,n))*Zhi,'fro')<=0.3105*sigma*mu  [I11]
  phim = trace(Xm*Zm);
  phi = trace(X*Z);
  %% ensures trace(X*Z)-0.75*trace(Xm*Zm)==0  [I8]
  %% ensures phi>0 && phi<=0.1  [I2]
  %% ensures phi-0.76*phim<0  [I3]
  mu = phi/n;
  %% ensures norm(X*Z-mu*eye(n,n),'fro')<=0.3105*mu  [I4]
  if phi-phim > 0
    % divergence guard: the gap may never grow; abort the run if it does.
    return
  end
end

% On exit trace(X*Z)<=epsilon. Under the contraction contract the pass
% count never exceeds ceil(log(trace(X0*Z0)/epsilon)/log(1/sigma)).
